package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// tracedRun gives the per-layer ledger. It alternates untraced
// repetitions (the baseline the tracing overhead is measured against) with
// traced ones (spans around the harness's calls into each layer, plus a
// CPU profile of the repetition folded onto modules) until the time is up,
// so both see the same warm-up and host noise. For fleet-echo it then
// replays the same event stream at one cluster worker, whose digest must
// equal the multi-worker one (the determinism check) and whose run time
// gives the same-stream parallel speedup.
func tracedRun(w workload, cfg config, seconds float64, outDir, meta string) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	tr := newTracer()
	folded := map[string]float64{}
	var (
		base, traced []repOut
		alloc        uint64
		lastProfile  []byte
	)
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < seconds {
		r, err := oneRep(w, cfg, nil)
		if err != nil {
			return result{}, err
		}
		base = append(base, r)

		runtime.GC()
		var prof bytes.Buffer
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		// pprof's default 100 Hz: on the 2-vCPU reference host a raised rate
		// lost three quarters of its samples, the default none.
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		r, err = w.rep(cfg, tr)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return result{}, fmt.Errorf("traced repetition %d: %w", len(traced)+1, err)
		}
		traced = append(traced, r)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		for k, v := range foldProfile(samples) {
			folded[k] += v
		}
		lastProfile = prof.Bytes()
	}
	profPath := filepath.Join(outDir, w.name+".cpu.pprof")
	if err := os.WriteFile(profPath, lastProfile, 0o644); err != nil {
		return result{}, err
	}

	var replay []repOut
	if w.name == "fleet-echo" {
		one := cfg
		one.workers = 1
		var err error
		if replay, err = repeat(w, one, seconds/4, 3); err != nil {
			return result{}, err
		}
	}

	all := append(append(append([]repOut(nil), base...), traced...), replay...)
	res := summarize(w.name, all)
	n := float64(len(traced))
	vals := map[string]float64{}
	last := traced[len(traced)-1].layers
	for k, v := range last {
		vals[k] = v
	}
	for _, id := range experimentIDs {
		k := "experiments." + id + ".host_s"
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.layers[k])
		}
		vals[k] = median(xs)
	}
	for k := range base[0].e2e {
		var xs []float64
		for _, r := range base {
			xs = append(xs, r.e2e[k])
		}
		vals[k] = median(xs)
	}
	vals["core.create_guest_ms"] = tr.meanNS("core.create_guest") / 1e6
	vals["core.run_ready_ms"] = tr.meanNS("core.run_ready") / 1e6
	vals["netstack.send_udp_us"] = tr.meanNS("netstack.send_udp") / 1e3
	vals["blkfront.submit_us"] = tr.meanNS("blkfront.submit") / 1e3
	for _, m := range profiledModules {
		vals[m+".host_ms"] = folded[m] / n
	}
	vals["runtime.gc_ms"] = folded["runtime.gc"] / n
	vals["runtime.other_ms"] = folded["runtime.other"] / n
	vals["runtime.alloc_mb"] = float64(alloc) / 1e6 / n
	baseRun := median(phaseSeconds(base, false))
	vals["trace.overhead_s"] = median(phaseSeconds(traced, false)) - baseRun

	// Determinism: every repetition ran the same seed, so every digest —
	// traced or not, at any worker count — must be the same.
	ref := base[0].digest
	mismatched := 0
	for _, r := range all {
		if r.digest != ref {
			mismatched++
		}
	}
	check := "PASS"
	vals["sim.determinism_ok"] = 1
	if mismatched > 0 {
		check = "FAIL"
		vals["sim.determinism_ok"] = 0
	}
	if replay != nil {
		vals["sim.cluster_speedup"] = ratio(median(phaseSeconds(replay, false)), baseRun)
		res.notes = append(res.notes, fmt.Sprintf(
			"determinism check %s: %d of %d repetitions (%d at %d workers, %d at 1 worker) differ from digest %016x",
			check, mismatched, len(all), len(base)+len(traced), cfg.workers, len(replay), ref))
	} else {
		res.notes = append(res.notes, fmt.Sprintf("determinism check %s: %d of %d repetitions differ from digest %016x",
			check, mismatched, len(all), ref))
	}

	spanPath := filepath.Join(outDir, w.name+".spans.jsonl")
	if err := tr.write(spanPath, fmt.Sprintf("workload=%s seed=%d %s", w.name, cfg.seed, meta)); err != nil {
		return result{}, err
	}
	res.notes = append(res.notes, fmt.Sprintf("trace: %d spans kept (%d more counted) in %s; last repetition's cpu profile in %s",
		len(tr.spans), tr.dropped, spanPath, profPath))
	var rest []string
	for k, v := range folded {
		if !isReported(k) {
			rest = append(rest, fmt.Sprintf("%s=%.1fms", k, v/n))
		}
	}
	if len(rest) > 0 {
		sort.Strings(rest)
		res.notes = append(res.notes, "unlisted profile buckets: "+strings.Join(rest, " "))
	}

	for _, m := range ledger() {
		res.metrics = append(res.metrics, metricValue{m.name, vals[m.name], m.unit})
	}
	res.table = res.metrics
	return res, nil
}

func isReported(bucket string) bool {
	if bucket == "runtime.gc" || bucket == "runtime.other" {
		return true
	}
	for _, m := range profiledModules {
		if m == bucket {
			return true
		}
	}
	return false
}
