package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// The tail the benchmark reports for n samples is the highest percentile
// that still leaves at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	if got := beyond(512, 98); got < 10 {
		t.Fatalf("p98 of 512 samples leaves %d beyond, want >= 10", got)
	}
	if got := beyond(512, 98.1); got >= 10 {
		t.Fatalf("p98.1 of 512 samples leaves %d beyond; p98 would not be the highest", got)
	}
	sorted := make([]float64, 512)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	if got := percentile(sorted, 98); got != 501 {
		t.Fatalf("p98 of 0..511 = %v, want 501 (nearest rank)", got)
	}
	if got := percentile(sorted, 50); got != 255 {
		t.Fatalf("p50 of 0..511 = %v, want 255", got)
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{512, 98}, {12000, 99.9}, {31500, 99.9}, {200, 90}, {5, 50}} {
		if got := tailPercentile(tc.n, 90, 98, 99.9); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestFoldModule(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "kite/internal/xen.(*Hypervisor).CopyGrant", "kite/internal/netback.(*VIF).drain"}, "xen"},
		{[]string{"runtime.mallocgc", "kite/internal/netstack/tcp.(*Conn).send", "kite/internal/sim.(*Engine).Step"}, "netstack"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"bytes.Equal", "main.blockMatches", "kite/internal/blkfront.(*Device).complete"}, "harness"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "kite/internal/sim.(*Engine).Schedule"}, "sim"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, "runtime.other"},
	} {
		if got := foldModule(tc.stack); got != tc.want {
			t.Errorf("foldModule(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// spin keeps one CPU busy so the profile has samples under package main.
func spin(d time.Duration) uint64 {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = splitmix(x)
		}
	}
	return x
}

func TestParseProfileFoldsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	folded := foldProfile(samples)
	if folded["harness"] <= 0 {
		t.Fatalf("500 ms of spinning in package main folded to %v", folded)
	}
}

func TestBlockAndDatagramChecks(t *testing.T) {
	b := make([]byte, 4096)
	fillBlock(b, 800, 3)
	if !blockMatches(b, 800, 3) {
		t.Fatal("fresh block does not match its model")
	}
	if blockMatches(b, 800, 2) || blockMatches(b, 808, 3) {
		t.Fatal("block matches a stale generation or another sector")
	}
	b[4095] ^= 1
	if blockMatches(b, 800, 3) {
		t.Fatal("corrupted block still matches")
	}
	if !blockMatches(make([]byte, 4096), 8, 0) {
		t.Fatal("never-written block must read as zeros")
	}

	d := make([]byte, echoLarge)
	scratch := make([]byte, echoLarge)
	fillDatagram(d, 7, 42, 1234)
	if tn, seq, due, ok := checkDatagram(d, scratch); !ok || tn != 7 || seq != 42 || due != 1234 {
		t.Fatalf("intact datagram: tenant %d seq %d due %d ok %v", tn, seq, due, ok)
	}
	d[100] ^= 0x80
	if _, _, _, ok := checkDatagram(d, scratch); ok {
		t.Fatal("corrupted datagram passes")
	}
}

// BENCHMARK.json must describe exactly what the harness prints.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness has %v", names, want)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, []string{"setup_s", "run_s", "peak_rss_mb"}) {
		t.Errorf("BENCHMARK.json end_to_end %v", e2e)
	}
	l := ledger()
	if len(l) != len(spec.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness prints %d", len(spec.PerLayer), len(l))
	}
	for i, m := range spec.PerLayer {
		if m.Name != l[i].name || m.Unit != l[i].unit || m.Better != l[i].better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, l[i])
		}
	}
}
