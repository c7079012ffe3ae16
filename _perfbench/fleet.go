package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"kite/internal/core"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

const (
	fleetLanes = 4

	// fleet-attach: tenants hot-plugged one at a time, each with a vif and
	// a vbd window of this size.
	attachTenants   = 512
	attachDiskBytes = 4 << 20
	// attachRounds of echo + block I/O per repetition: one round is a few
	// tens of milliseconds, too short to time alone on a noisy host.
	attachRounds = 30

	// fleet-echo: an open loop in simulated time. Every tenant sends one
	// datagram per echoPeriod; tenant 0 is an adversary sending ten times
	// as often. Three of every four datagrams are small and one is large,
	// so per-packet and per-byte costs both show.
	echoTenants   = 64
	echoPeriod    = 100 * sim.Microsecond
	echoAdversary = 10
	echoDuration  = 50 * sim.Millisecond
	echoSmall     = 64
	echoLarge     = 1400

	echoServerPort = 7
	echoTenantPort = 40000
)

// tenantIP is fleet tenant i's address (clear of the testbed's 10.0.0.x).
func tenantIP(i int) netpkt.IP { return netpkt.IPv4(10, 0, byte(2+i>>8), byte(i)) }

// datagram layout: tenant (4 bytes), sequence (4), due time (8), then a
// fill derived from (tenant, sequence) so corruption anywhere shows.
const dgHeader = 16

func fillDatagram(b []byte, tenant int, seq uint32, due sim.Time) {
	binary.LittleEndian.PutUint32(b[0:], uint32(tenant))
	binary.LittleEndian.PutUint32(b[4:], seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(due))
	x := uint64(tenant)<<32 | uint64(seq)
	i := dgHeader
	for ; i+8 <= len(b); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	for x = splitmix(x); i < len(b); i++ {
		b[i] = byte(x)
		x >>= 8
	}
}

// checkDatagram reports whether b is the intact datagram it claims to be,
// and returns its tenant, sequence and due time.
func checkDatagram(b []byte, scratch []byte) (tenant int, seq uint32, due sim.Time, ok bool) {
	if len(b) < dgHeader || len(b) > len(scratch) {
		return 0, 0, 0, false
	}
	tenant = int(binary.LittleEndian.Uint32(b[0:]))
	seq = binary.LittleEndian.Uint32(b[4:])
	due = sim.Time(binary.LittleEndian.Uint64(b[8:]))
	want := scratch[:len(b)]
	fillDatagram(want, tenant, seq, due)
	return tenant, seq, due, bytes.Equal(b, want)
}

// fleetAttachRep hot-plugs attachTenants tenants one at a time into one
// fleet-mode network domain and one fleet-mode storage domain; each attach
// is CreateGuest followed by RunReady until that tenant is Ready. The
// measured phase then has every tenant do one UDP echo and one 4 KiB write
// and read-back.
func fleetAttachRep(cfg config, tr *tracer) (repOut, error) {
	out := repOut{e2e: map[string]float64{}, layers: map[string]float64{}}
	t0 := time.Now()
	setupSpan := tr.begin("rep.setup", spanRef{idx: -1}, 0)
	tb := core.NewTestbedSharded(cfg.seed, fleetLanes)
	sys := tb.System
	sys.Cluster.SetWorkers(cfg.workers)
	defer sys.Cluster.SetWorkers(1) // retire the barrier workers
	nd, err := sys.CreateNetworkDomain(core.NetworkDomainConfig{
		Kind: core.KindKite, NIC: tb.ServerNIC, Fleet: true,
	})
	if err != nil {
		return out, err
	}
	sd, err := sys.CreateStorageDomain(core.StorageDomainConfig{
		Kind: core.KindKite, Device: tb.NVMe, FleetLanes: fleetLanes,
	})
	if err != nil {
		return out, err
	}
	guests := make([]*core.Guest, 0, attachTenants)
	attachMS := make([]float64, 0, attachTenants)
	h := newFNV()
	for i := 0; i < attachTenants; i++ {
		a0 := time.Now()
		sp := tr.begin("core.create_guest", setupSpan, uint64(i))
		g, err := sys.CreateGuest(core.GuestConfig{
			Name: fmt.Sprintf("tenant%03d", i), IP: tenantIP(i),
			Net: nd, Fleet: true, FleetLane: i % fleetLanes,
			Seed:    cfg.seed ^ uint64(i+1)*0x9e3779b97f4a7c15,
			Storage: sd, DiskBytes: attachDiskBytes, CacheBytes: 1 << 20,
		})
		tr.end(sp)
		if err != nil {
			return out, fmt.Errorf("tenant %d: %w", i, err)
		}
		sp = tr.begin("core.run_ready", setupSpan, uint64(i))
		ok := sys.RunReady(g.Ready, 500000)
		tr.end(sp)
		attachMS = append(attachMS, float64(time.Since(a0).Nanoseconds())/1e6)
		out.attempted++
		if !ok {
			out.failed++
			continue
		}
		h.add(uint64(sys.Eng.Now()))
		guests = append(guests, g)
	}
	tr.end(setupSpan)
	out.setup = time.Since(t0)
	ready := takeSnap(sys, nd, sd)
	h.add(ready.events)
	h.add(ready.storeOps)

	sorted := sortedCopy(attachMS)
	out.e2e["attach_ms_p50"] = percentile(sorted, 50)
	out.e2e["attach_ms_p98"] = percentile(sorted, 98)
	out.e2e["xenstore_ops"] = float64(ready.storeOps)

	// Measured phase: attachRounds rounds, each one UDP echo and then one
	// 4 KiB write + read-back per tenant; run_s is the median round.
	settle()
	before := ready
	echoed, stored := make([]bool, len(guests)), make([]bool, len(guests))
	scratch := make([]byte, 2048)
	if err := tb.Client.Stack.BindUDP(echoServerPort, func(p netstack.UDPPacket) {
		tb.Client.Stack.SendUDP(p.Src, p.SrcPort, echoServerPort, p.Data)
	}); err != nil {
		return out, err
	}
	var rtt []float64
	round := uint32(0)
	for i, g := range guests {
		i := i
		if err := g.Stack.BindUDP(echoTenantPort, func(p netstack.UDPPacket) {
			tn, seq, due, ok := checkDatagram(p.Data, scratch)
			if ok && tn == i && seq == round {
				echoed[i] = true
				rtt = append(rtt, (sys.Eng.Now() - due).Micros())
			}
		}); err != nil {
			return out, err
		}
	}
	all := func(flags []bool) func() bool {
		return func() bool {
			for _, f := range flags {
				if !f {
					return false
				}
			}
			return true
		}
	}
	payload := make([]byte, 200)
	blocks := make([][]byte, len(guests))
	for i := range blocks {
		blocks[i] = make([]byte, blkBlock)
	}
	var submitted uint64
	var rounds []float64
	for ; round < attachRounds; round++ {
		clear(echoed)
		clear(stored)
		r0 := time.Now()
		runSpan := tr.begin("rep.run", spanRef{idx: -1}, uint64(round))
		for i, g := range guests {
			fillDatagram(payload, i, round, sys.Eng.Now())
			sp := tr.begin("netstack.send_udp", runSpan, uint64(i))
			g.Stack.SendUDP(tb.ClientIP, echoServerPort, echoTenantPort, payload)
			tr.end(sp)
		}
		// The echoes finish before the block I/O starts: issued together, a
		// blkback notification can pick a tenant vCPU pinned to an idle lane
		// shard whose clock lags, and the simulator panics scheduling into
		// the past (a program defect recorded in CHANGES.md).
		sys.RunReady(all(echoed), 50_000_000)
		for i, g := range guests {
			i, g := i, g
			blk := int64(splitmix(cfg.seed^uint64(i)<<8^uint64(round)) % (attachDiskBytes / blkBlock))
			sector := blk * blkSectors
			fillBlock(blocks[i], sector, round+1)
			sp := tr.begin("blkfront.submit", runSpan, submitted)
			submitted++
			g.Disk.WriteSectors(sector, blocks[i], func(err error) {
				if err != nil {
					return
				}
				sp := tr.begin("blkfront.submit", runSpan, submitted)
				submitted++
				g.Disk.ReadSectors(sector, blkBlock, func(data []byte, err error) {
					stored[i] = err == nil && blockMatches(data, sector, round+1)
				})
				tr.end(sp)
			})
			tr.end(sp)
		}
		sys.RunReady(all(stored), 50_000_000)
		tr.end(runSpan)
		rounds = append(rounds, time.Since(r0).Seconds())
		for i := range guests {
			out.attempted += 2
			if !echoed[i] {
				out.failed++
			}
			if !stored[i] {
				out.failed++
			}
		}
	}
	out.run = time.Duration(median(rounds) * float64(time.Second))
	after := takeSnap(sys, nd, sd)
	for _, v := range rtt {
		h.addF(v)
	}
	h.add(sys.Eng.Processed())
	out.digest = uint64(h)
	out.layers = controlLayers(nd, sd, len(guests), ready)
	netLayers(out.layers, nd, sys, guests, before, after)
	blkLayers(out.layers, sd, guests, sys, before, after, uint64(2*attachRounds*len(guests)))
	return out, nil
}

// fleetEchoRep runs the open-loop echo over a 64-tenant fleet network
// domain with cluster workers = cfg.workers.
func fleetEchoRep(cfg config, tr *tracer) (repOut, error) {
	out := repOut{e2e: map[string]float64{}, layers: map[string]float64{}}
	t0 := time.Now()
	setupSpan := tr.begin("rep.setup", spanRef{idx: -1}, 0)
	rig, err := core.NewFleetRig(core.FleetConfig{Guests: echoTenants, Lanes: fleetLanes, Seed: cfg.seed})
	tr.end(setupSpan)
	out.setup = time.Since(t0)
	if err != nil {
		return out, err
	}
	sys := rig.Testbed.System
	eng := sys.Eng
	ready := takeSnap(sys, rig.ND, nil)
	sys.Cluster.SetWorkers(cfg.workers)
	defer sys.Cluster.SetWorkers(1) // retire the barrier workers

	client := rig.Client.Stack
	if err := client.BindUDP(echoServerPort, func(p netstack.UDPPacket) {
		client.SendUDP(p.Src, p.SrcPort, echoServerPort, p.Data)
	}); err != nil {
		return out, err
	}

	// Inputs: each tenant's send phase within the period and which of its
	// four-datagram cycle is the large one come from the seed.
	gen := rng{s: cfg.seed ^ 0xec40}
	type tenantState struct {
		sent, got, bad uint32
		seen           []bool
	}
	states := make([]tenantState, echoTenants)
	var rtts []float64
	h := newFNV()
	scratch := make([]byte, echoLarge)
	start := eng.Now() + 10*sim.Microsecond
	end := start + echoDuration
	runSpan := tr.begin("rep.run", spanRef{idx: -1}, 0)
	for i, g := range rig.Guests {
		i, g := i, g
		period := echoPeriod
		if i == 0 {
			period /= echoAdversary
		}
		n := int((echoDuration + period - 1) / period)
		states[i].seen = make([]bool, n+1)
		if err := g.Stack.BindUDP(echoTenantPort, func(p netstack.UDPPacket) {
			st := &states[i]
			tn, seq, due, ok := checkDatagram(p.Data, scratch)
			if !ok || tn != i || int(seq) >= len(st.seen) || st.seen[seq] {
				st.bad++
				return
			}
			st.seen[seq] = true
			st.got++
			rtt := eng.Now() - due
			h.add(uint64(i)<<32 | uint64(seq))
			h.add(uint64(rtt))
			if i != 0 {
				rtts = append(rtts, rtt.Micros())
			}
		}); err != nil {
			return out, err
		}
		bigSlot := uint32(gen.intn(4))
		offset := sim.Time(gen.intn(int(period)))
		buf := make([]byte, echoLarge)
		var tick func()
		tick = func() {
			st := &states[i]
			seq := st.sent
			size := echoSmall
			if seq%4 == bigSlot {
				size = echoLarge
			}
			now := eng.Now()
			fillDatagram(buf[:size], i, seq, now)
			sp := tr.begin("netstack.send_udp", runSpan, uint64(i)<<32|uint64(seq))
			g.Stack.SendUDP(rig.ClientIP, echoServerPort, echoTenantPort, buf[:size])
			tr.end(sp)
			st.sent++
			if next := now + period; next < end {
				eng.Schedule(next, tick)
			}
		}
		eng.Schedule(start+offset, tick)
	}
	settle()
	before := takeSnap(sys, rig.ND, nil)
	r0 := time.Now()
	eng.Run()
	out.run = time.Since(r0)
	tr.end(runSpan)
	after := takeSnap(sys, rig.ND, nil)

	var advSent, advLost uint32
	for i := range states {
		st := states[i]
		if i == 0 {
			advSent, advLost = st.sent, st.sent-st.got
			continue
		}
		out.attempted += int(st.sent)
		out.failed += int(st.sent-st.got) + int(st.bad)
	}
	sorted := sortedCopy(rtts)
	frames := float64(after.netFrames - before.netFrames)
	out.e2e["frames_per_s"] = frames / out.run.Seconds()
	out.e2e["sim_rtt_us_p50"] = percentile(sorted, 50)
	out.e2e["sim_rtt_us_p999"] = percentile(sorted, tailPercentile(len(sorted), 99.9))
	out.e2e["sim_rtt_us_max"] = percentile(sorted, 100)
	out.e2e["adversary_sent"] = float64(advSent)
	out.e2e["adversary_lost"] = float64(advLost)
	out.e2e["sim_events"] = float64(after.events - before.events)
	h.add(after.events - before.events)
	h.add(uint64(advLost))
	out.digest = uint64(h)
	out.layers = controlLayers(rig.ND, nil, len(rig.Guests), ready)
	netLayers(out.layers, rig.ND, sys, rig.Guests, before, after)
	return out, nil
}
