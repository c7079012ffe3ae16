package core

import (
	"fmt"
	"runtime"
	"testing"

	"kite/internal/netstack"
)

// BenchmarkFleet sweeps the tenant count of a fleet-mode network driver
// domain: N single-queue guests share four DRR service lanes (one per
// cluster shard), and every iteration pushes one frame per tenant
// through its lane to the external client. Wall-clock time per wave
// tracks how the shared-lane data plane scales with the fleet size:
// lanes, demux bitmaps, and flow-table lookups are all O(1) per frame
// (the residual growth is the event heap and window sync), and the
// steady state allocates nothing at any scale. `make bench` snapshots
// the sweep into BENCH_net.json next to the forward-path families.
func BenchmarkFleet(b *testing.B) {
	for _, guests := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("guests=%d", guests), func(b *testing.B) {
			rig, err := NewFleetRig(FleetConfig{
				Guests: guests, Lanes: 4, Seed: 0xf1ee7,
			})
			if err != nil {
				b.Fatal(err)
			}
			sys := rig.Testbed.System
			if c := sys.Cluster; c != nil {
				c.SetWorkers(min(c.Shards(), runtime.NumCPU()))
			}
			delivered := 0
			rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) { delivered++ })
			payload := pattern(128)
			eng := sys.Eng
			wave := func(w int) {
				for _, g := range rig.Guests {
					g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+w%64), payload)
				}
			}
			for w := 0; w < 8; w++ { // warm pools, slots, FDB, lane lists
				wave(w)
				eng.Run()
			}
			delivered = 0
			simStart := eng.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				wave(n)
				eng.Run()
			}
			b.StopTimer()
			if delivered != b.N*guests {
				b.Fatalf("delivered %d of %d", delivered, b.N*guests)
			}
			simElapsed := (eng.Now() - simStart).Seconds()
			b.ReportMetric(float64(b.N*guests)/simElapsed, "simframes/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*guests), "ns/frame")
		})
	}
}

// BenchmarkFleetBringUp sweeps the cost of building a fleet: every
// iteration runs NewFleetRig, which hot-plugs N guests into a fleet-mode
// network driver domain and completes every xenbus handshake. The
// control plane (xenstore watch dispatch, backend invocation, tenant
// publication) dominates it, so ns/guest and allocs/guest stay flat
// only while each attach costs O(changed) rather than O(fleet).
// allocs/guest is deterministic, which makes it the quantity `make
// bench` gates for flatness; ns/guest is host-dependent and reported
// only.
func BenchmarkFleetBringUp(b *testing.B) {
	for _, guests := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("guests=%d", guests), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				rig, err := NewFleetRig(FleetConfig{Guests: guests, Lanes: 4, Seed: 0xf1ee7})
				if err != nil {
					b.Fatal(err)
				}
				if len(rig.Guests) != guests {
					b.Fatalf("rig holds %d guests, want %d", len(rig.Guests), guests)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N * guests)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/guest")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/guest")
		})
	}
}
