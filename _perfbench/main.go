// Command perfbench is the repository benchmark: a single-process harness
// that drives four workloads through the public functions of internal/core
// and the layer packages, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
//
// Each run repeats one fixed-work repetition of the workload until
// --seconds of wall time have passed (with a per-workload minimum), timing
// the set-up and the measured phase of every repetition separately and
// reporting medians. Every repetition uses the same seed, so its simulated
// outputs — and the digest over them — must repeat exactly.
//
// Run it from the repository root through run.sh:
//
//	bash _perfbench/run.sh --workload fleet-echo --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// repOut is what one repetition of a workload reports.
type repOut struct {
	setup, run time.Duration
	attempted  int
	failed     int
	digest     uint64
	// e2e holds the workload's own end-to-end figures for this repetition
	// (attach percentiles, throughput, simulated latencies), printed in the
	// per-workload table.
	e2e map[string]float64
	// layers holds exact per-layer counts read after the repetition.
	layers map[string]float64
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// minReps is the least number of repetitions one run makes, so the
	// set-up and run medians always rest on several samples.
	minReps int
	// rep builds the rigs and runs one fixed-work repetition. tr is nil in
	// untraced repetitions.
	rep func(cfg config, tr *tracer) (repOut, error)
}

// config is what a repetition needs to know about the run.
type config struct {
	seed    uint64
	workers int // cluster workers for sharded rigs
}

func workloads() []workload {
	return []workload{
		{name: "fleet-attach", minReps: 3, rep: fleetAttachRep},
		{name: "fleet-echo", minReps: 5, rep: fleetEchoRep},
		{name: "blk-mixed", minReps: 5, rep: blkMixedRep},
		{name: "paper-quick", minReps: 3, rep: paperQuickRep},
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "wall seconds one run measures")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workers := fs.Int("workers", runtime.NumCPU(), "cluster workers for sharded rigs")
	outDir := fs.String("out", ".bench_build/trace", "directory for span and profile files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	var names []string
	for _, w := range workloads() {
		w := w
		names = append(names, w.name)
		if w.name == *name {
			wl = &w
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	cfg := config{seed: *seed, workers: max(1, *workers)}
	meta := hostMeta(cfg)
	fmt.Printf("# perfbench workload=%s seed=%d %s\n", wl.name, cfg.seed, meta)

	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*wl, cfg, *seconds, *outDir, meta)
	} else {
		res, err = untracedRun(*wl, cfg, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	return 0
}

// hostMeta records what a result must be read against.
func hostMeta(cfg config) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("numcpu=%d gomaxprocs=%d workers=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.workers, runtime.Version(), commit)
}

// result is the summary one run prints.
type result struct {
	workload  string
	reps      []repOut
	attempted int
	failed    int
	metrics   []metricValue // printed in the JSON line, in order
	table     []metricValue // the workload's own figures, printed above it
	notes     []string
}

type metricValue struct {
	name  string
	value float64
	unit  string
}

// repeat runs repetitions until at least minReps have run and their total
// wall time reaches seconds.
func repeat(w workload, cfg config, seconds float64, minReps int) ([]repOut, error) {
	var reps []repOut
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r, err := oneRep(w, cfg, nil)
		if err != nil {
			return reps, fmt.Errorf("repetition %d: %w", len(reps)+1, err)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// oneRep runs one repetition after collecting the previous one's garbage,
// so one repetition's heap does not tax the next.
func oneRep(w workload, cfg config, tr *tracer) (repOut, error) {
	runtime.GC()
	return w.rep(cfg, tr)
}

// settle collects garbage between a repetition's set-up and its measured
// phase, so the measured phase does not pay for the set-up's garbage.
func settle() { runtime.GC() }

func untracedRun(w workload, cfg config, seconds float64) (result, error) {
	reps, err := repeat(w, cfg, seconds, w.minReps)
	if err != nil {
		return result{}, err
	}
	res := summarize(w.name, reps)
	res.metrics = endToEnd(reps)
	return res, nil
}

// endToEnd is the gated end-to-end metrics of a run's repetitions.
func endToEnd(reps []repOut) []metricValue {
	return []metricValue{
		{"setup_s", median(phaseSeconds(reps, true)), "s"},
		{"run_s", median(phaseSeconds(reps, false)), "s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
}

// summarize folds the repetitions' counts, digests and workload figures.
func summarize(workload string, reps []repOut) result {
	res := result{workload: workload, reps: reps}
	for _, r := range reps {
		res.attempted += r.attempted
		res.failed += r.failed
	}
	digests := map[uint64]int{}
	for _, r := range reps {
		digests[r.digest]++
	}
	res.notes = append(res.notes, fmt.Sprintf("digest %016x (%d of %d repetitions agree)",
		reps[0].digest, digests[reps[0].digest], len(reps)))
	for _, phase := range []bool{true, false} {
		s := sortedCopy(phaseSeconds(reps, phase))
		name := "run_s"
		if phase {
			name = "setup_s"
		}
		res.notes = append(res.notes, fmt.Sprintf("%s over repetitions: min %.6g, median %.6g, max %.6g",
			name, s[0], median(s), s[len(s)-1]))
	}
	var keys []string
	for k := range reps[0].e2e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vals := make([]float64, 0, len(reps))
		for _, r := range reps {
			vals = append(vals, r.e2e[k])
		}
		res.table = append(res.table, metricValue{k, median(vals), unitOf(k)})
	}
	res.table = append(res.table, endToEnd(reps)...)
	return res
}

// unitOf derives a workload figure's unit from its name suffix.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_per_s"):
		if strings.Contains(name, "mb") {
			return "MB/s"
		}
		return "1/s"
	}
	return "count"
}

func phaseSeconds(reps []repOut, setup bool) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		if setup {
			out[i] = r.setup.Seconds()
		} else {
			out[i] = r.run.Seconds()
		}
	}
	return out
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (res result) print(w *os.File) error {
	fmt.Fprintf(w, "# %s: %d repetitions, attempted %d, failed %d\n",
		res.workload, len(res.reps), res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range res.table {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]jm{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
