package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer records spans around the harness's own calls into each layer.
// Nothing inside the program is instrumented: a span covers exactly one
// call the harness makes (CreateGuest, RunReady, SendUDP, a blkfront
// submit). Spans are kept in memory, up to maxSpans, and written out when
// the run ends; per-name counts and totals cover every span, kept or not.
type tracer struct {
	t0      time.Time
	names   []string
	nameIdx map[string]int
	count   []uint64
	totalNS []int64
	spans   []span
	dropped uint64
}

// span is one recorded interval. id is its index+1 in tracer.spans;
// parent 0 is a root. req identifies the request the span served, where
// one exists (tenant index, datagram sequence or block op number).
type span struct {
	id, parent int32
	name       int
	req        uint64
	start, end int64 // ns since the tracer started
}

const maxSpans = 1 << 16

// spanRef is an open span.
type spanRef struct {
	idx   int32 // -1 when the span is counted but not kept
	name  int
	start int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nameIdx: map[string]int{}}
}

// begin opens a span. A nil tracer records nothing.
func (t *tracer) begin(name string, parent spanRef, req uint64) spanRef {
	if t == nil {
		return spanRef{idx: -1}
	}
	ni, ok := t.nameIdx[name]
	if !ok {
		ni = len(t.names)
		t.nameIdx[name] = ni
		t.names = append(t.names, name)
		t.count = append(t.count, 0)
		t.totalNS = append(t.totalNS, 0)
	}
	now := int64(time.Since(t.t0))
	ref := spanRef{idx: -1, name: ni, start: now}
	if len(t.spans) < maxSpans {
		ref.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{id: ref.idx + 1, parent: parent.idx + 1,
			name: ni, req: req, start: now})
	} else {
		t.dropped++
	}
	return ref
}

// end closes a span.
func (t *tracer) end(s spanRef) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.count[s.name]++
	t.totalNS[s.name] += now - s.start
	if s.idx >= 0 {
		t.spans[s.idx].end = now
	}
}

// meanNS is the mean duration of the named spans, in nanoseconds.
func (t *tracer) meanNS(name string) float64 {
	i, ok := t.nameIdx[name]
	if !ok || t.count[i] == 0 {
		return 0
	}
	return float64(t.totalNS[i]) / float64(t.count[i])
}

// write stores the kept spans as JSON lines, one span per line, headed
// by the host metadata line.
func (t *tracer) write(path, meta string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"meta\":%q,\"spans\":%d,\"dropped\":%d}\n", meta, len(t.spans), t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, t.names[s.name], s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
