// Command benchjson converts `go test -bench` output on stdin into a small
// JSON document on stdout, so `make bench` can snapshot benchmark numbers
// (BENCH_net.json) that tooling and PR descriptions can diff.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name            string  `json:"name"`
	Iterations      int64   `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	FramesPerSec    float64 `json:"frames_per_sec,omitempty"`
	BytesPerSec     float64 `json:"bytes_per_sec,omitempty"`
	SimFramesPerSec float64 `json:"sim_frames_per_sec,omitempty"`
	SimBytesPerSec  float64 `json:"sim_bytes_per_sec,omitempty"`
	// NsPerFrame is wall-clock nanoseconds per simulated frame (the
	// benchmark's own ns/frame metric) — host-machine dependent.
	NsPerFrame  float64 `json:"ns_per_frame,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// ParallelSpeedup is the wall-clock ratio of this benchmark's
	// /queues=1 family baseline to this entry: >1 means the sharded
	// configuration finished the same wave faster than the serial one.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// NsPerGuestOp is the virtual (simulated) nanoseconds of driver-domain
	// time one guest operation costs, derived from simframes/sec on
	// /guests=N sweep entries. Virtual time is deterministic and identical
	// on every host, so scaling gates compare this, not wall clock: wall
	// ns/frame across fleet sizes mostly measures the host's cache
	// hierarchy (a 1024-guest working set misses where 64 guests fit),
	// which says nothing about the simulated data plane.
	NsPerGuestOp float64 `json:"ns_per_guest_op,omitempty"`
	// NsPerGuest and AllocsPerGuest are a bring-up benchmark's wall-clock
	// nanoseconds and heap allocations per guest brought up (its own
	// ns/guest and allocs/guest metrics). Allocation counts are
	// deterministic, so they can be gated on any runner; wall time cannot.
	NsPerGuest     float64 `json:"ns_per_guest,omitempty"`
	AllocsPerGuest float64 `json:"allocs_per_guest,omitempty"`
}

// fillPerGuest derives ns_per_guest_op for fleet-sweep entries (/guests=N)
// from their virtual throughput.
func fillPerGuest(results []result) {
	for i := range results {
		if strings.Contains(results[i].Name, "/guests=") && results[i].SimFramesPerSec > 0 {
			results[i].NsPerGuestOp = 1e9 / results[i].SimFramesPerSec
		}
	}
}

// fillSpeedups computes ParallelSpeedup for every /queues=N entry from the
// /queues=1 entry of the same benchmark family (the name prefix up to
// "/queues=").
func fillSpeedups(results []result) {
	base := make(map[string]float64)
	for _, r := range results {
		fam, q, ok := splitQueues(r.Name)
		if ok && q == "1" && r.NsPerOp > 0 {
			base[fam] = r.NsPerOp
		}
	}
	for i := range results {
		fam, _, ok := splitQueues(results[i].Name)
		if !ok || results[i].NsPerOp <= 0 {
			continue
		}
		if b, found := base[fam]; found {
			results[i].ParallelSpeedup = b / results[i].NsPerOp
		}
	}
}

// splitQueues splits "Family/queues=N" into the family prefix and N.
func splitQueues(name string) (fam, q string, ok bool) {
	i := strings.LastIndex(name, "/queues=")
	if i < 0 {
		return "", "", false
	}
	return name[:i], name[i+len("/queues="):], true
}

// benchName strips the trailing -N GOMAXPROCS suffix go test appends, and
// only that: sub-benchmark names (Benchmark/queues=4-8) may themselves
// contain dashes, so cut at the LAST dash and only when digits follow.
func benchName(field string) string {
	if i := strings.LastIndex(field, "-"); i > 0 {
		if _, err := strconv.Atoi(field[i+1:]); err == nil {
			return field[:i]
		}
	}
	return field
}

func main() {
	gate := flag.String("gate", "", "comma-separated benchmark entries (e.g. BenchmarkForwardPathMQ/queues=4) that must keep parallel_speedup >= 1 against their /queues=1 family baseline; a NAME@MIN suffix lowers the bar (BenchmarkBlockPathMQ/queues=8@0.9). Exit 1 on any miss")
	gateAllocs := flag.String("gate-allocs", "", "comma-separated benchmark entries that must report 0 allocs/op; exit 1 otherwise")
	gateSpeedup := flag.String("gate-speedup", "", "comma-separated FAMILY=MIN pairs (e.g. ForwardPathMQ=1.0); each family's /queues=4 entry must keep parallel_speedup >= MIN. A full entry name on the left (BlockPathMQ/queues=8=0.9) gates that entry instead. Exit 1 on any miss")
	gateFlat := flag.String("gate-flat", "", "comma-separated BIG:SMALL:METRIC@MAX entries (e.g. Fleet/guests=1024:Fleet/guests=64:ns_per_guest_op@1.25); the BIG entry's METRIC, a numeric field of the JSON output, must stay <= MAX x the SMALL entry's. Gate only metrics that are deterministic across hosts (virtual ns_per_guest_op, allocs_per_guest). Exit 1 on any miss")
	flag.Parse()
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		r := result{Name: benchName(fields[0])}
		r.Iterations, _ = strconv.ParseInt(fields[1], 10, 64)
		// Remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "frames/sec":
				r.FramesPerSec = v
			case "bytes/sec":
				r.BytesPerSec = v
			case "simframes/sec":
				r.SimFramesPerSec = v
			case "simbytes/sec":
				r.SimBytesPerSec = v
			case "ns/frame":
				r.NsPerFrame = v
			case "ns/guest":
				r.NsPerGuest = v
			case "allocs/guest":
				r.AllocsPerGuest = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	fillSpeedups(results)
	fillPerGuest(results)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *gate != "" {
		for _, g := range strings.Split(*gate, ",") {
			checkGate(results, strings.TrimSpace(g))
		}
	}
	if *gateAllocs != "" {
		for _, g := range strings.Split(*gateAllocs, ",") {
			checkGateAllocs(results, strings.TrimSpace(g))
		}
	}
	if *gateSpeedup != "" {
		for _, g := range strings.Split(*gateSpeedup, ",") {
			checkGateSpeedup(results, strings.TrimSpace(g))
		}
	}
	if *gateFlat != "" {
		for _, g := range strings.Split(*gateFlat, ",") {
			checkGateFlat(results, strings.TrimSpace(g))
		}
	}
}

// checkGateFlat fails the run if the BIG entry's METRIC exceeds MAX times
// the SMALL entry's (gate format BIG:SMALL:METRIC@MAX, METRIC naming a
// numeric JSON field of the entries). These are the fleet-scaling flatness
// gates: the data-plane sweep compares ns_per_guest_op, which is simulated
// time, and the bring-up sweep allocs_per_guest, which is a deterministic
// count, so either comparison is exact and machine-independent — any miss
// is a real O(fleet) term creeping back in, not host noise.
func checkGateFlat(results []result, gate string) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
		os.Exit(1)
	}
	i := strings.LastIndex(gate, "@")
	if i < 0 {
		fail("bad -gate-flat entry %q (want BIG:SMALL:METRIC@MAX)", gate)
	}
	max, err := strconv.ParseFloat(gate[i+1:], 64)
	if err != nil || max <= 0 {
		fail("bad -gate-flat ratio in %q", gate)
	}
	parts := strings.Split(gate[:i], ":")
	if len(parts) != 3 {
		fail("bad -gate-flat entry %q (want BIG:SMALL:METRIC@MAX)", gate)
	}
	metric := parts[2]
	value := func(name string) (string, float64) {
		if !strings.HasPrefix(name, "Benchmark") {
			name = "Benchmark" + name
		}
		for j := range results {
			if results[j].Name != name {
				continue
			}
			var fields map[string]any
			raw, _ := json.Marshal(results[j])
			_ = json.Unmarshal(raw, &fields)
			v, _ := fields[metric].(float64)
			if v <= 0 {
				fail("flatness gate %s needs %s on %s (metric missing from its benchmark line?)", gate, metric, name)
			}
			return name, v
		}
		fail("flatness gate entry %s not found in benchmark output", name)
		return "", 0
	}
	bigName, big := value(parts[0])
	smallName, small := value(parts[1])
	if ratio := big / small; ratio > max {
		fail("flatness gate %s failed: measured %s=%.1f / %s=%.1f %s, ratio %.3f, required <= %.2f",
			gate, bigName, big, smallName, small, metric, ratio, max)
	}
}

// checkGateSpeedup fails the run if a family's canonical parallel entry
// (its /queues=4 sub-benchmark, unless the gate names a specific entry)
// reports parallel_speedup below the given minimum. Unlike -gate, the bar
// is explicit per family, so CI can hold the multi-queue configurations to
// a floor that a regressing scheduler or barrier change would fall through.
func checkGateSpeedup(results []result, gate string) {
	i := strings.LastIndex(gate, "=")
	if i <= 0 {
		fmt.Fprintf(os.Stderr, "benchjson: bad -gate-speedup entry %q (want FAMILY=MIN)\n", gate)
		os.Exit(1)
	}
	min, err := strconv.ParseFloat(gate[i+1:], 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: bad -gate-speedup threshold %q\n", gate)
		os.Exit(1)
	}
	name := gate[:i]
	if !strings.Contains(name, "/queues=") {
		name += "/queues=4"
	}
	if !strings.HasPrefix(name, "Benchmark") {
		name = "Benchmark" + name
	}
	for _, r := range results {
		if r.Name != name {
			continue
		}
		if r.ParallelSpeedup == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: speedup gate %s has no /queues=1 family baseline\n", name)
			os.Exit(1)
		}
		if r.ParallelSpeedup < min {
			fmt.Fprintf(os.Stderr, "benchjson: speedup gate %s failed: measured parallel_speedup=%.3f, required >= %.2f (tolerances documented in EXPERIMENTS.md)\n",
				name, r.ParallelSpeedup, min)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "benchjson: speedup gate %s not found in benchmark output\n", name)
	os.Exit(1)
}

// checkGate fails the run if the gated entry's parallel_speedup against
// its /queues=1 family baseline is below the gate's threshold (1 by
// default; a NAME@MIN suffix lowers it for families whose parallel win
// is real but shy of break-even at the gated point).
func checkGate(results []result, gate string) {
	min := 1.0
	if i := strings.LastIndex(gate, "@"); i >= 0 {
		v, err := strconv.ParseFloat(gate[i+1:], 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad gate threshold %q\n", gate)
			os.Exit(1)
		}
		min, gate = v, gate[:i]
	}
	for _, r := range results {
		if r.Name != gate {
			continue
		}
		if r.ParallelSpeedup == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s has no /queues=1 family baseline\n", gate)
			os.Exit(1)
		}
		if r.ParallelSpeedup < min {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s failed: measured parallel_speedup=%.3f against its /queues=1 family baseline, required >= %.2f (tolerances documented in EXPERIMENTS.md)\n",
				gate, r.ParallelSpeedup, min)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "benchjson: gate %s not found in benchmark output\n", gate)
	os.Exit(1)
}

// checkGateAllocs fails the run if the gated entry allocates: families
// like BenchmarkFleet have no /queues=1 wall-clock baseline, but their
// steady state must stay allocation-free at every scale.
func checkGateAllocs(results []result, gate string) {
	for _, r := range results {
		if r.Name != gate {
			continue
		}
		if r.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr, "benchjson: allocs gate %s failed: measured %d allocs/op (%d B/op), required 0 allocs/op\n",
				gate, r.AllocsPerOp, r.BytesPerOp)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "benchjson: gate %s not found in benchmark output\n", gate)
	os.Exit(1)
}
