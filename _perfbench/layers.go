package main

import (
	"kite/internal/core"
	"kite/internal/sim"
	"kite/internal/xen"
)

// layerMetric is one per-layer metric of the ledger. Every traced run
// prints all of them; a layer a workload leaves idle reads 0.
type layerMetric struct {
	name, unit, better string
}

// experimentIDs are the paper suite's experiments, in registry order.
var experimentIDs = []string{"FIG1A", "FIG1B", "FIG4", "FIG4C", "TAB3", "FIG6", "FIG7",
	"FIG8", "FIG9", "FIG10", "FIG11", "FIG12", "FIG13", "FIG14", "FIG15", "FIG16", "DHCP"}

// profiledModules are the repository modules whose CPU-profile time the
// traced run reports as <module>.host_ms.
var profiledModules = []string{
	"xenstore", "xenbus", "core", "xen", "ring", "netif", "blkif", "mem",
	"netfront", "netback", "bridge", "nat", "nic", "netstack", "netpkt", "framepool", "timewheel",
	"blkfront", "blkback", "blkpool", "nvme", "bufpool", "fsim",
	"sim", "experiments", "workload", "apps", "security", "guestos", "metrics", "harness",
}

// ledger is the ordered per-layer metric list; BENCHMARK.json's per_layer
// section lists exactly these (TestLedgerMatchesBenchmarkJSON).
func ledger() []layerMetric {
	l := []layerMetric{
		// The workloads' own end-to-end figures (0 on workloads that lack
		// them), from the traced run's untraced repetitions.
		{"attach_ms_p50", "ms", "lower"},
		{"attach_ms_p98", "ms", "lower"},
		{"frames_per_s", "1/s", "higher"},
		{"blk_mb_per_s", "MB/s", "higher"},
		{"sim_rtt_us_p50", "us", "lower"},
		{"sim_rtt_us_p999", "us", "lower"},
		{"sim_blk_lat_us_p50", "us", "lower"},
		{"sim_blk_lat_us_p999", "us", "lower"},
		// Control plane.
		{"xenstore.ops_per_tenant", "count", "lower"},
		{"netback.invocations", "count", "lower"},
		{"blkback.invocations", "count", "lower"},
		{"sim.events_per_tenant", "count", "lower"},
		{"core.create_guest_ms", "ms", "lower"},
		{"core.run_ready_ms", "ms", "lower"},
		// Network data plane.
		{"netstack.send_udp_us", "us", "lower"},
		{"sim.events_per_frame", "count", "lower"},
		{"xen.grant_copies_per_frame", "count", "lower"},
		{"xen.event_sends_per_frame", "count", "lower"},
		{"ring.notify_saved_frac", "ratio", "higher"},
		{"netback.persist_rx_hit_frac", "ratio", "higher"},
		{"netback.drops", "count", "lower"},
		{"netfront.tx_ring_full", "count", "lower"},
		{"bridge.flooded_frac", "ratio", "lower"},
		{"xen.demux_marks_per_scan", "count", "higher"},
		{"netback.lane_rounds", "count", "lower"},
		{"framepool.recycle_frac", "ratio", "higher"},
		{"netback.sim_busy_frac", "ratio", "lower"},
		// Event core.
		{"sim.cluster_windows", "count", "lower"},
		{"sim.cluster_posts_per_frame", "count", "lower"},
		{"sim.cluster_speedup", "ratio", "higher"},
		{"sim.determinism_ok", "count", "higher"},
		// Storage data plane.
		{"blkfront.submit_us", "us", "lower"},
		{"blkfront.indirect_frac", "ratio", "higher"},
		{"blkfront.queued_full", "count", "lower"},
		{"blkback.merged_frac", "ratio", "higher"},
		{"blkback.persist_hit_frac", "ratio", "higher"},
		{"blkback.device_ops_per_op", "count", "lower"},
		{"nvme.vec_cmds", "count", "lower"},
		{"blkpool.recycle_frac", "ratio", "higher"},
		{"blkback.sim_busy_frac", "ratio", "lower"},
		{"sim.events_per_op", "count", "lower"},
	}
	for _, id := range experimentIDs {
		l = append(l, layerMetric{"experiments." + id + ".host_s", "s", "lower"})
	}
	for _, m := range profiledModules {
		l = append(l, layerMetric{m + ".host_ms", "ms", "lower"})
	}
	return append(l,
		layerMetric{"runtime.gc_ms", "ms", "lower"},
		layerMetric{"runtime.other_ms", "ms", "lower"},
		layerMetric{"runtime.alloc_mb", "MB", "lower"},
		layerMetric{"trace.overhead_s", "s", "lower"},
	)
}

// vbdDevID is the device id core gives every guest's vbd (xvda).
const vbdDevID = 51712

// snap is the counter state at one instant of a repetition; the measured
// phase's per-frame and per-op ratios are deltas between two snaps.
type snap struct {
	events          uint64
	storeOps        uint64
	now             sim.Time
	hv              xen.Stats
	windows, posted uint64
	netFrames       uint64
	netBusy         sim.Time
	blkBusy         sim.Time
	fpGets, fpRecyc uint64
	bpGets, bpRecyc uint64
}

func takeSnap(sys *core.System, nd *core.NetworkDomain, sd *core.StorageDomain) snap {
	s := snap{
		events: sys.Eng.Processed(), storeOps: sys.Store.Ops(), now: sys.Eng.Now(), hv: sys.HV.Stats(),
		fpGets: sys.Pool.Gets(), fpRecyc: sys.Pool.Recycled(),
		bpGets: sys.BlkPool.Gets(), bpRecyc: sys.BlkPool.Recycled(),
	}
	if c := sys.Cluster; c != nil {
		s.windows, s.posted = c.Windows(), c.Posted()
	}
	if nd != nil {
		for _, v := range nd.Driver.VIFs() {
			st := v.Stats()
			s.netFrames += st.TxFrames + st.RxFrames
		}
		s.netBusy = nd.Dom.CPUs.BusyTotal()
	}
	if sd != nil {
		s.blkBusy = sd.Dom.CPUs.BusyTotal()
	}
	return s
}

// busyFrac is the share of a domain's vCPU capacity its busy time used
// between two instants.
func busyFrac(busy, elapsed sim.Time, cpus *sim.CPUPool) float64 {
	return ratio(float64(busy), float64(elapsed)*float64(cpus.Len()))
}

// controlLayers reads the control-plane counters of a fleet; setup is the
// snapshot taken when the fleet was ready.
func controlLayers(nd *core.NetworkDomain, sd *core.StorageDomain, tenants int, setup snap) map[string]float64 {
	m := map[string]float64{}
	m["xenstore.ops_per_tenant"] = ratio(float64(setup.storeOps), float64(tenants))
	if nd != nil {
		m["netback.invocations"] = float64(nd.Driver.Invocations())
	}
	if sd != nil {
		m["blkback.invocations"] = float64(sd.Driver.Invocations())
	}
	m["sim.events_per_tenant"] = ratio(float64(setup.events), float64(tenants))
	return m
}

// netLayers reads the network data plane's counters over the measured
// phase (between before and after).
func netLayers(m map[string]float64, nd *core.NetworkDomain, sys *core.System, guests []*core.Guest, before, after snap) {
	frames := float64(after.netFrames - before.netFrames)
	m["sim.events_per_frame"] = ratio(float64(after.events-before.events), frames)
	m["xen.grant_copies_per_frame"] = ratio(float64(after.hv.GrantCopies-before.hv.GrantCopies), frames)
	m["xen.event_sends_per_frame"] = ratio(float64(after.hv.EventSends-before.hv.EventSends), frames)
	m["sim.cluster_windows"] = float64(after.windows - before.windows)
	m["sim.cluster_posts_per_frame"] = ratio(float64(after.posted-before.posted), frames)
	m["framepool.recycle_frac"] = ratio(float64(after.fpRecyc-before.fpRecyc), float64(after.fpGets-before.fpGets))
	m["netback.sim_busy_frac"] = busyFrac(after.netBusy-before.netBusy, after.now-before.now, nd.Dom.CPUs)

	var hits, misses, drops float64
	for _, v := range nd.Driver.VIFs() {
		st := v.Stats()
		hits += float64(st.RxPersistHits)
		misses += float64(st.RxPersistMisses)
		drops += float64(st.RxQueueDrops + st.RxNoBufDrops + st.TxErrors)
	}
	var txFull float64
	for _, g := range guests {
		txFull += float64(g.Net.Stats().TxRingFull)
		// Claim only looks the published rings up; it takes nothing away.
		if ch, err := sys.NetReg.Claim(g.Dom.ID, 0); err == nil {
			addRing(m, ch.Tx.Stats)
			addRing(m, ch.Rx.Stats)
		}
	}
	m["netfront.tx_ring_full"] = txFull
	m["netback.persist_rx_hit_frac"] = ratio(hits, hits+misses)
	m["netback.drops"] = drops
	br := nd.Bridge.Stats()
	m["bridge.flooded_frac"] = ratio(float64(br.Flooded), float64(br.Forwarded+br.Flooded))
	var rounds, scans, marks float64
	for _, l := range nd.Driver.Lanes() {
		rounds += float64(l.Rounds())
		s, k := l.DemuxStats()
		scans += float64(s)
		marks += float64(k)
	}
	m["netback.lane_rounds"] = rounds
	m["xen.demux_marks_per_scan"] = ratio(marks, scans)
}

// addRing accumulates one ring's lifetime counters into the ledger's
// notify-suppression ratio (kept as running sums under private keys).
func addRing(m map[string]float64, stats func() (reqs, rsps, reqSaved, rspSaved uint64)) {
	reqs, rsps, rqs, rss := stats()
	m["_ring.pushes"] += float64(reqs + rsps)
	m["_ring.saved"] += float64(rqs + rss)
	m["ring.notify_saved_frac"] = ratio(m["_ring.saved"], m["_ring.pushes"])
}

// blkLayers reads the storage data plane's counters; ops is the number of
// caller operations the measured phase completed.
func blkLayers(m map[string]float64, sd *core.StorageDomain, guests []*core.Guest,
	sys *core.System, before, after snap, ops uint64) {
	var ring, indirect, full float64
	for _, g := range guests {
		f := g.Disk.Stats()
		ring += float64(f.RingRequests)
		indirect += float64(f.IndirectRequests)
		full += float64(f.QueuedFull)
		if ch, ok := sys.BlkReg.Claim(g.Dom.ID, vbdDevID); ok {
			addRing(m, ch.Rings.Stats)
		}
	}
	m["blkfront.indirect_frac"] = ratio(indirect, ring)
	m["blkfront.queued_full"] = full
	var reqs, merged, hits, devOps float64
	for _, inst := range sd.Driver.Instances() {
		st := inst.Stats()
		reqs += float64(st.RingRequests)
		merged += float64(st.MergedRequests)
		hits += float64(st.PersistentHits)
		devOps += float64(st.DeviceOps)
	}
	m["blkback.merged_frac"] = ratio(merged, reqs)
	// Hits count indirect descriptor pages as well as data segments; every
	// miss is one grant map, so hits/(hits+maps) is the cache's hit rate.
	maps := float64(after.hv.GrantMaps - before.hv.GrantMaps)
	m["blkback.persist_hit_frac"] = ratio(hits, hits+maps)
	m["blkback.device_ops_per_op"] = ratio(devOps, float64(ops))
	m["blkpool.recycle_frac"] = ratio(float64(after.bpRecyc-before.bpRecyc), float64(after.bpGets-before.bpGets))
	m["blkback.sim_busy_frac"] = busyFrac(after.blkBusy-before.blkBusy, after.now-before.now, sd.Dom.CPUs)
	m["sim.events_per_op"] = ratio(float64(after.events-before.events), float64(ops))
	nv := sd.Device.Stats()
	m["nvme.vec_cmds"] = float64(nv.VecReads + nv.VecWrites)
}
