package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"kite/internal/core"
	"kite/internal/experiments"
)

// paperQuickRep runs kitebench's default quick suite — every experiment of
// experiments.Registry() at Quick() scale, one at a time, on both Linux
// and Kite rigs — and checks each experiment's qualitative paper claim.
// The suite fixes its own inputs; the seed only seeds the set-up rigs.
//
// Set-up is the bring-up the suite repeats inside every experiment, done
// once up front and timed: a network rig and a storage rig of each kind,
// handshakes completed.
func paperQuickRep(cfg config, tr *tracer) (repOut, error) {
	out := repOut{e2e: map[string]float64{}, layers: map[string]float64{}}
	t0 := time.Now()
	setupSpan := tr.begin("rep.setup", spanRef{idx: -1}, 0)
	for _, kind := range []core.DriverKind{core.KindLinux, core.KindKite} {
		if _, err := core.NewNetworkRig(kind, cfg.seed); err != nil {
			return out, fmt.Errorf("%s network rig: %w", kind, err)
		}
		if _, err := core.NewStorageRig(core.StorageRigConfig{Kind: kind, Seed: cfg.seed}); err != nil {
			return out, fmt.Errorf("%s storage rig: %w", kind, err)
		}
	}
	tr.end(setupSpan)
	out.setup = time.Since(t0)

	h := newFNV()
	scale := experiments.Quick()
	settle()
	r0 := time.Now()
	runSpan := tr.begin("rep.run", spanRef{idx: -1}, 0)
	events0 := experiments.EventsProcessed()
	for i, sp := range experiments.Registry() {
		out.attempted++
		e0 := time.Now()
		span := tr.begin("experiments.run", runSpan, uint64(i))
		res, err := runExperiment(sp, scale)
		tr.end(span)
		out.layers["experiments."+sp.ID+".host_s"] = time.Since(e0).Seconds()
		if err == nil {
			err = paperClaim(sp.ID, res)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: paper-quick: %v\n", err)
			continue
		}
		h.addS(res.ID)
		for _, p := range res.Pairs {
			h.addS(p.Metric)
			h.addF(p.Linux)
			h.addF(p.Kite)
		}
	}
	tr.end(runSpan)
	out.run = time.Since(r0)
	events := experiments.EventsProcessed() - events0
	h.add(events)
	out.e2e["sim_events"] = float64(events)
	out.digest = uint64(h)
	return out, nil
}

// runExperiment runs one experiment, turning the panic an experiment
// raises on a stuck simulation into an error.
func runExperiment(sp experiments.Spec, s experiments.Scale) (res *experiments.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", sp.ID, r)
		}
	}()
	res = sp.Run(s)
	if res == nil {
		return nil, fmt.Errorf("%s: no result", sp.ID)
	}
	return res, nil
}

// paperClaim checks the qualitative claim of the paper experiment id
// reproduces: who wins, and by roughly what factor.
func paperClaim(id string, res *experiments.Result) error {
	pair := func(name string) (*experiments.Pair, error) {
		p := res.Pair(name)
		if p == nil || math.IsNaN(p.Linux) || math.IsNaN(p.Kite) {
			return nil, fmt.Errorf("%s: missing pair %q", res.ID, name)
		}
		return p, nil
	}
	parity := func(name string, f float64) error {
		p, err := pair(name)
		if err != nil {
			return err
		}
		if !p.Parity(f) {
			return fmt.Errorf("%s: %s parity %.3g vs %.3g beyond %.2fx", res.ID, name, p.Kite, p.Linux, f)
		}
		return nil
	}
	// grows checks that the Kite side rises from small to big.
	grows := func(small, big string) error {
		s, err := pair(small)
		if err != nil {
			return err
		}
		b, err := pair(big)
		if err != nil {
			return err
		}
		if b.Kite <= s.Kite {
			return fmt.Errorf("%s: %s (%.3g) does not exceed %s (%.3g)", res.ID, big, b.Kite, small, s.Kite)
		}
		return nil
	}
	// ratioAtLeast checks Linux/Kite >= f (Kite smaller by f).
	ratioAtLeast := func(name string, f float64) error {
		p, err := pair(name)
		if err != nil {
			return err
		}
		if p.Linux/p.Kite < f {
			return fmt.Errorf("%s: %s linux/kite %.2f below %.1f", res.ID, name, p.Linux/p.Kite, f)
		}
		return nil
	}
	notBehind := func(name string, f float64) error {
		p, err := pair(name)
		if err != nil {
			return err
		}
		if p.Kite < p.Linux*f {
			return fmt.Errorf("%s: %s kite %.3g behind linux %.3g", res.ID, name, p.Kite, p.Linux)
		}
		return nil
	}
	all := func(errs ...error) error {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}
	switch id {
	case "FIG1A":
		if res.Table == nil || res.Table.NumRows() < 5 {
			return fmt.Errorf("FIG1A: needs several years")
		}
		return nil
	case "FIG1B":
		return ratioAtLeast("default/kite", 3)
	case "FIG4":
		return all(ratioAtLeast("syscalls", 10), ratioAtLeast("image", 9))
	case "FIG4C":
		return ratioAtLeast("boot-to-service", 10)
	case "TAB3":
		p, err := pair("mitigated-by-kite")
		if err != nil {
			return err
		}
		if p.Kite != 11 {
			return fmt.Errorf("TAB3: %v of 11 CVEs mitigated", p.Kite)
		}
		return nil
	case "FIG6":
		return parity("throughput", 1.3)
	case "FIG7":
		for _, p := range res.Pairs {
			if p.Kite > p.Linux*1.05 {
				return fmt.Errorf("FIG7: %s kite %.3g worse than linux %.3g", p.Metric, p.Kite, p.Linux)
			}
		}
		return nil
	case "FIG8":
		return all(parity("tput@512KB", 1.3), grows("tput@512B", "tput@512KB"))
	case "FIG9", "FIG13":
		for _, p := range res.Pairs {
			if !p.Parity(1.35) {
				return fmt.Errorf("%s: %s parity violated", res.ID, p.Metric)
			}
		}
		return nil
	case "FIG10":
		return all(grows("qps@5", "qps@60"), parity("qps@60", 1.3), grows("cpu@5", "cpu@60"))
	case "FIG11":
		return all(parity("read", 1.3), parity("write", 1.3))
	case "FIG12":
		return all(grows("thr@1", "thr@100"), parity("thr@100", 1.35), grows("bs@16KB", "bs@8MB"))
	case "FIG14":
		return all(grows("io@16KB", "io@8MB"), parity("io@8MB", 1.4))
	case "FIG15", "FIG16":
		return notBehind("throughput", 0.9)
	case "DHCP":
		do, err := pair("discover-offer")
		if err != nil {
			return err
		}
		ra, err := pair("request-ack")
		if err != nil {
			return err
		}
		if do.Kite <= 0 || ra.Kite <= 0 || do.Kite > 5 || ra.Kite > 5 {
			return fmt.Errorf("DHCP: latencies implausible: %+v", res.Pairs)
		}
		return nil
	}
	return fmt.Errorf("%s: no paper claim registered", id)
}
