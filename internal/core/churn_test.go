package core

import (
	"testing"

	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
	"kite/internal/xenbus"
)

// laneMembers sums the demux membership across a fleet driver's lanes.
func laneMembers(rig *FleetRig) int {
	total := 0
	for _, l := range rig.ND.Driver.Lanes() {
		total += l.Members()
	}
	return total
}

// TestFleetTenantChurnMidTraffic closes a quarter of a fleet's tenants
// while their traffic is still in flight, then reconnects them, checking
// every table the churn touches: the tenant registry ledger, the lanes'
// demux membership (a departed doorbell must leave its group, not pin a
// dead member slot), the driver's VIF set, the xenstore watch set (a
// close/reattach cycle must not leave watches behind), and — the leak
// canary — the frame pool, which must drain to zero outstanding buffers
// even when a vif dies with queued frames.
func TestFleetTenantChurnMidTraffic(t *testing.T) {
	const guests = 16
	rig, err := NewFleetRig(FleetConfig{Guests: guests, Lanes: 4, Seed: 0xc4a2})
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.System
	nd := rig.ND

	idxOf := make(map[netpkt.IP]int, guests)
	for i := range rig.Guests {
		idxOf[fleetGuestIP(i)] = i
	}
	got := make([]int, guests)
	rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) {
		if i, ok := idxOf[p.Src]; ok {
			got[i]++
		}
	})
	payload := make([]byte, 256)
	watches := sys.Bus.Store().Watches()

	// Every tenant offers a burst, drained only partially before the
	// churn hits: closed vifs die with frames still queued.
	for i, g := range rig.Guests {
		for j := 0; j < 32; j++ {
			g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i), payload)
		}
	}
	sys.Eng.RunFor(50 * sim.Microsecond)

	// 0, 5, 10, 15: one departure on each of the four lanes.
	churned := []int{0, 5, 10, 15}
	isChurned := make([]bool, guests)
	for _, i := range churned {
		isChurned[i] = true
		rig.Guests[i].CloseNet(sys)
	}
	sys.Eng.Run()

	if n := sys.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked across the disconnects", n)
	}
	if n := nd.Tenants.Len(); n != guests-len(churned) {
		t.Fatalf("registry holds %d tenants, want %d", n, guests-len(churned))
	}
	if att, det := nd.Tenants.Churn(); att != guests || det != uint64(len(churned)) {
		t.Fatalf("registry churn = (%d, %d), want (%d, %d)", att, det, guests, len(churned))
	}
	if n := laneMembers(rig); n != guests-len(churned) {
		t.Fatalf("lane demux members = %d after departures, want %d", n, guests-len(churned))
	}
	if n := len(nd.Driver.VIFs()); n != guests-len(churned) {
		t.Fatalf("driver holds %d vifs, want %d", n, guests-len(churned))
	}

	// Survivors are unaffected: each delivers a follow-up burst in full.
	base := append([]int(nil), got...)
	for i, g := range rig.Guests {
		if isChurned[i] {
			continue
		}
		for j := 0; j < 4; j++ {
			g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i), payload)
		}
	}
	sys.Eng.Run()
	for i := range rig.Guests {
		want := 0
		if !isChurned[i] {
			want = 4
		}
		if got[i]-base[i] != want {
			t.Fatalf("tenant %d delivered %d post-churn frames, want %d",
				i, got[i]-base[i], want)
		}
	}

	// The departed tenants reconnect onto their original lanes and carry
	// traffic again; the ledger and lane membership return to full.
	for _, i := range churned {
		if err := rig.Guests[i].ReattachNet(sys, nd); err != nil {
			t.Fatal(err)
		}
	}
	ready := func() bool {
		for _, i := range churned {
			if !rig.Guests[i].Ready() {
				return false
			}
		}
		return true
	}
	if !sys.RunReady(ready, uint64(guests+1)*500000) {
		t.Fatal("reattached tenants never reconnected")
	}
	if n := nd.Tenants.Len(); n != guests {
		t.Fatalf("registry holds %d tenants after reattach, want %d", n, guests)
	}
	if att, det := nd.Tenants.Churn(); att != guests+uint64(len(churned)) || det != uint64(len(churned)) {
		t.Fatalf("registry churn = (%d, %d) after reattach, want (%d, %d)",
			att, det, guests+len(churned), len(churned))
	}
	if n := laneMembers(rig); n != guests {
		t.Fatalf("lane demux members = %d after reattach, want %d", n, guests)
	}
	lanes := make(map[xenbus.DomID]int, guests)
	for _, tn := range nd.Tenants.Tenants() {
		lanes[tn.Dom] = tn.Lane
	}
	for _, i := range churned {
		if lane, ok := lanes[xenbus.DomID(rig.Guests[i].Dom.ID)]; !ok || lane < 0 {
			t.Fatalf("tenant %d has no lane after reattach (ledger entry %v, lane %d)", i, ok, lane)
		}
	}
	if n := sys.Bus.Store().Watches(); n != watches {
		t.Fatalf("store holds %d watches after the churn cycle, want %d", n, watches)
	}

	base = append([]int(nil), got...)
	for i, g := range rig.Guests {
		for j := 0; j < 4; j++ {
			g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i), payload)
		}
	}
	sys.Eng.Run()
	for i := range rig.Guests {
		if got[i]-base[i] != 4 {
			t.Fatalf("tenant %d delivered %d frames after reattach, want 4",
				i, got[i]-base[i])
		}
	}
	if n := sys.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked across the churn cycle", n)
	}
}
