package blkback

import (
	"bytes"
	"testing"

	"kite/internal/blkfront"
	"kite/internal/blkif"
	"kite/internal/nvme"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

type rig struct {
	eng   *sim.Engine
	hv    *xen.Hypervisor
	bus   *xenbus.Bus
	reg   *blkif.Registry
	dd    *xen.Domain
	guest *xen.Domain
	dev   *nvme.Device
	drv   *Driver
	front *blkfront.Device
}

// buildRig assembles a storage driver domain exporting a 1 GiB vbd window
// to one guest.
func buildRig(t *testing.T, costs Costs) *rig {
	t.Helper()
	eng := sim.NewEngine()
	hv := xen.New(eng)
	hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 2, MemBytes: 256 << 20, Privileged: true,
		IRQLatency: 6 * sim.Microsecond})
	store := xenstore.New(eng)
	bus := xenbus.New(store)
	reg := blkif.NewRegistry()

	dd := hv.CreateDomain(xen.DomainConfig{Name: "blk-dd", VCPUs: 1, MemBytes: 64 << 20,
		IRQLatency: 3 * sim.Microsecond})
	guest := hv.CreateDomain(xen.DomainConfig{Name: "domU", VCPUs: 4, MemBytes: 128 << 20,
		IRQLatency: 6 * sim.Microsecond})

	dev := nvme.New(eng, nvme.Default970EvoPlus(), "04:00.0")
	if err := hv.AssignPCI("04:00.0", dd.ID); err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(eng, dd, bus, reg, dev, costs)

	// Toolstack: add the vbd with a 1 GiB window starting at sector 2048.
	bus.AddDevice(xenbus.DeviceSpec{
		Type: "vbd", FrontDom: xenbus.DomID(guest.ID), BackDom: xenbus.DomID(dd.ID),
		DevID: 51712, BackExtra: map[string]string{"params": "2048:2097152"},
	})
	front := blkfront.New(eng, blkfront.Config{
		Dom: guest, Bus: bus, Registry: reg, DevID: 51712, BackDom: dd.ID,
	})
	r := &rig{eng: eng, hv: hv, bus: bus, reg: reg, dd: dd, guest: guest,
		dev: dev, drv: drv, front: front}
	if !eng.RunCapped(100000) {
		t.Fatal("handshake livelocked")
	}
	return r
}

func TestHandshakeAndNegotiation(t *testing.T) {
	r := buildRig(t, KiteCosts())
	if !r.front.Ready() {
		t.Fatal("frontend not connected")
	}
	if r.front.SectorCount() != 2097152 {
		t.Fatalf("vbd sectors = %d", r.front.SectorCount())
	}
	if !r.front.Persistent() {
		t.Fatal("persistent grants not negotiated")
	}
	if r.front.MaxIndirect() != blkif.MaxSegsIndirect {
		t.Fatalf("indirect limit = %d", r.front.MaxIndirect())
	}
	if len(r.drv.Instances()) != 1 {
		t.Fatalf("instances = %d", len(r.drv.Instances()))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := buildRig(t, KiteCosts())
	data := make([]byte, 16384)
	sim.NewRand(42).Bytes(data)
	wrote := false
	var got []byte
	r.front.WriteSectors(100, data, func(err error) {
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		wrote = true
		r.front.ReadSectors(100, len(data), func(b []byte, err error) {
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			got = append([]byte(nil), b...) // b is pooled, valid only in the callback
		})
	})
	if !r.eng.RunCapped(500000) {
		t.Fatal("livelock")
	}
	if !wrote || !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted data")
	}
	// Window translation: the bytes must live at base+100 on the device.
	// (Peek via a raw device read.)
	var raw []byte
	r.dev.Read(2048+100, len(data), func(b []byte, err error) { raw = b })
	r.eng.RunCapped(100000)
	if !bytes.Equal(raw, data) {
		t.Fatal("vbd window translation wrong")
	}
}

func TestLargeIOUsesIndirect(t *testing.T) {
	r := buildRig(t, KiteCosts())
	data := make([]byte, 128<<10) // 32 segments: indirect territory
	sim.NewRand(7).Bytes(data)
	var got []byte
	r.front.WriteSectors(0, data, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		r.front.ReadSectors(0, len(data), func(b []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = append([]byte(nil), b...) // b is pooled, valid only in the callback
		})
	})
	if !r.eng.RunCapped(1_000_000) {
		t.Fatal("livelock")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large i/o corrupted")
	}
	st := r.front.Stats()
	if st.IndirectRequests < 2 {
		t.Fatalf("expected indirect requests, got %d", st.IndirectRequests)
	}
	// 128 KiB fits one indirect request each way; without indirect it
	// would need 3 ring requests per direction.
	if st.RingRequests != 2 {
		t.Fatalf("ring requests = %d, want 2 (one indirect per direction)", st.RingRequests)
	}
}

func TestNoIndirectFallsBackToSplit(t *testing.T) {
	costs := KiteCosts()
	costs.Indirect = false
	r := buildRig(t, costs)
	if r.front.MaxIndirect() != 0 {
		t.Fatal("indirect advertised despite being disabled")
	}
	data := make([]byte, 128<<10)
	var done bool
	r.front.WriteSectors(0, data, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	if !r.eng.RunCapped(1_000_000) {
		t.Fatal("livelock")
	}
	if !done {
		t.Fatal("write never completed")
	}
	// 128 KiB / 44 KiB -> 3 direct requests.
	if st := r.front.Stats(); st.RingRequests != 3 || st.IndirectRequests != 0 {
		t.Fatalf("requests = %+v, want 3 direct", st)
	}
}

func TestPersistentGrantsReduceMapTraffic(t *testing.T) {
	run := func(persistent bool) (maps uint64, hits uint64) {
		costs := KiteCosts()
		costs.Persistent = persistent
		r := buildRig(t, costs)
		data := make([]byte, 44<<10)
		round := 0
		var loop func()
		loop = func() {
			r.front.WriteSectors(0, data, func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				round++
				if round < 20 {
					loop()
				}
			})
		}
		r.hv.ResetStats()
		loop()
		if !r.eng.RunCapped(2_000_000) {
			t.Fatal("livelock")
		}
		return r.hv.Stats().GrantMaps, r.drv.Instances()[0].Stats().PersistentHits
	}
	mapsOn, hitsOn := run(true)
	mapsOff, hitsOff := run(false)
	if hitsOn == 0 || hitsOff != 0 {
		t.Fatalf("persistent hits on=%d off=%d", hitsOn, hitsOff)
	}
	if mapsOn*4 > mapsOff {
		t.Fatalf("persistent grants saved too little: maps on=%d off=%d", mapsOn, mapsOff)
	}
}

func TestBatchingMergesConsecutiveRequests(t *testing.T) {
	run := func(batch bool) (deviceOps, merged uint64) {
		costs := KiteCosts()
		costs.Batch = batch
		costs.Indirect = false // force multiple 44 KiB requests
		r := buildRig(t, costs)
		data := make([]byte, 176<<10) // 4 consecutive direct requests
		done := false
		r.front.WriteSectors(0, data, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
		if !r.eng.RunCapped(2_000_000) {
			t.Fatal("livelock")
		}
		if !done {
			t.Fatal("write never completed")
		}
		st := r.drv.Instances()[0].Stats()
		return st.DeviceOps, st.MergedRequests
	}
	opsOn, mergedOn := run(true)
	opsOff, mergedOff := run(false)
	if mergedOn == 0 || mergedOff != 0 {
		t.Fatalf("merged on=%d off=%d", mergedOn, mergedOff)
	}
	if opsOn >= opsOff {
		t.Fatalf("batching did not reduce device ops: on=%d off=%d", opsOn, opsOff)
	}
}

func TestFlushBarrier(t *testing.T) {
	r := buildRig(t, KiteCosts())
	flushed := false
	r.front.WriteSectors(0, make([]byte, 4096), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		r.front.Flush(func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			flushed = true
		})
	})
	if !r.eng.RunCapped(500000) {
		t.Fatal("livelock")
	}
	if !flushed {
		t.Fatal("flush never completed")
	}
	if r.dev.Stats().FlushOps != 1 {
		t.Fatal("flush not forwarded to device")
	}
}

func TestOutOfRangeIORejected(t *testing.T) {
	r := buildRig(t, KiteCosts())
	var gotErr error
	called := false
	r.front.ReadSectors(r.front.SectorCount()-1, 8192, func(_ []byte, err error) {
		called = true
		gotErr = err
	})
	if !r.eng.RunCapped(100000) {
		t.Fatal("livelock")
	}
	if !called || gotErr == nil {
		t.Fatal("out-of-range read not rejected")
	}
}

func TestManyOutstandingRequestsRespectRing(t *testing.T) {
	// Issue far more requests than ring slots; the frontend must queue and
	// everything must complete with data intact.
	r := buildRig(t, KiteCosts())
	const n = 100
	completed := 0
	payloads := make([][]byte, n)
	rng := sim.NewRand(13)
	for i := 0; i < n; i++ {
		payloads[i] = make([]byte, 4096)
		rng.Bytes(payloads[i])
		i := i
		r.front.WriteSectors(int64(i*8), payloads[i], func(err error) {
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			completed++
		})
	}
	if !r.eng.RunCapped(5_000_000) {
		t.Fatal("livelock")
	}
	if completed != n {
		t.Fatalf("completed %d of %d writes", completed, n)
	}
	// Verify a few back.
	checked := 0
	for _, i := range []int{0, 37, 99} {
		i := i
		r.front.ReadSectors(int64(i*8), 4096, func(b []byte, err error) {
			if err != nil || !bytes.Equal(b, payloads[i]) {
				t.Fatalf("verify %d failed", i)
			}
			checked++
		})
	}
	r.eng.RunCapped(1_000_000)
	if checked != 3 {
		t.Fatal("verification reads incomplete")
	}
}

func TestRequestThreadWakes(t *testing.T) {
	r := buildRig(t, KiteCosts())
	done := false
	r.front.WriteSectors(0, make([]byte, 4096), func(error) { done = true })
	r.eng.RunCapped(500000)
	if !done {
		t.Fatal("write incomplete")
	}
	inst := r.drv.Instances()[0]
	if _, runs := inst.ThreadRuns(); runs == 0 {
		t.Fatal("request thread never ran")
	}
}

func TestFrontendCloseCleansUp(t *testing.T) {
	r := buildRig(t, KiteCosts())
	// Generate persistent mappings first.
	done := false
	r.front.WriteSectors(0, make([]byte, 44<<10), func(error) { done = true })
	r.eng.RunCapped(500000)
	if !done {
		t.Fatal("priming write incomplete")
	}
	fp := xenbus.FrontendPath(xenbus.DomID(r.guest.ID), "vbd", 51712)
	if err := r.bus.SwitchState(fp, xenbus.StateClosed); err != nil {
		t.Fatal(err)
	}
	if !r.eng.RunCapped(100000) {
		t.Fatal("teardown livelocked")
	}
	if len(r.drv.Instances()) != 0 {
		t.Fatal("instance survived frontend close")
	}
	// Only the backend's own subtree watch outlives the device: the
	// backend's readiness and teardown watches and blkfront's
	// backend-state watch all go with it.
	if n := r.bus.Store().Watches(); n != 1 {
		t.Fatalf("store holds %d watches after teardown, want 1", n)
	}
}

func TestBadParamsRejected(t *testing.T) {
	r := buildRig(t, KiteCosts())
	// Add a vbd whose window exceeds the device.
	r.bus.AddDevice(xenbus.DeviceSpec{
		Type: "vbd", FrontDom: xenbus.DomID(r.guest.ID), BackDom: xenbus.DomID(r.dd.ID),
		DevID: 51728, BackExtra: map[string]string{"params": "0:99999999999"},
	})
	if !r.eng.RunCapped(100000) {
		t.Fatal("livelock")
	}
	bp := xenbus.BackendPath(xenbus.DomID(r.dd.ID), "vbd", xenbus.DomID(r.guest.ID), 51728)
	if r.bus.State(bp) != xenbus.StateClosed {
		t.Fatalf("oversized vbd state = %v, want Closed", r.bus.State(bp))
	}
}
