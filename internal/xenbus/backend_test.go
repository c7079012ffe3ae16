package xenbus

import (
	"errors"
	"testing"

	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenstore"
)

// fakeInst is the instance fakeDev builds.
type fakeInst struct{ c Conn }

func (in *fakeInst) FrontDom() xen.DomID { return in.c.FrontDom }

// fakeDev is a device adapter with scripted Connect outcomes.
type fakeDev struct {
	bus        *Bus
	advertised int
	notReady   bool // Connect answers ErrNotReady
	fail       bool // Connect fails outright
	down       []*fakeInst
}

func (f *fakeDev) Advertise(backPath string, s State) error {
	if s == StateInitialising {
		f.advertised++
		f.bus.WriteFeature(backPath, xenstore.KeyFeatureRxCopy, true)
	}
	return nil
}

func (f *fakeDev) Connect(c Conn) (*fakeInst, int, error) {
	switch {
	case f.fail:
		return nil, -1, errors.New("fake: no device")
	case f.notReady:
		return nil, -1, ErrNotReady
	}
	return &fakeInst{c: c}, 1, nil
}

func (f *fakeDev) Disconnect(in *fakeInst) { f.down = append(f.down, in) }

type backendRig struct {
	eng *sim.Engine
	bus *Bus
	dd  *xen.Domain
	dev *fakeDev
	be  *Backend[*fakeInst]
}

func newBackendRig() *backendRig {
	eng := sim.NewEngine()
	bus := New(xenstore.New(eng))
	hv := xen.New(eng)
	hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 1 << 20, Privileged: true})
	dd := hv.CreateDomain(xen.DomainConfig{Name: "dd", VCPUs: 2, MemBytes: 1 << 20})
	dev := &fakeDev{bus: bus}
	be := NewBackend[*fakeInst](eng, dd, bus, xenstore.DevVif, 8, sim.Microsecond, dev)
	return &backendRig{eng: eng, bus: bus, dd: dd, dev: dev, be: be}
}

// plug creates the xenstore skeleton of one frontend device served by the
// rig's driver domain.
func (r *backendRig) plug(front DomID, devid int) (fp, bp string) {
	return r.bus.AddDevice(DeviceSpec{
		Type: xenstore.DevVif, FrontDom: front, BackDom: DomID(r.dd.ID), DevID: devid,
	})
}

// ready publishes a single-queue frontend's event channel and announces
// it Initialised.
func (r *backendRig) ready(fp string, port int) {
	r.bus.Store().Writef(fp+"/"+xenstore.KeyEventChannel, "%d", port)
	_ = r.bus.SwitchState(fp, StateInitialised)
}

// run drains the engine, failing on a wake livelock.
func (r *backendRig) run(t *testing.T) {
	t.Helper()
	if !r.eng.RunCapped(100000) {
		t.Fatal("invoker livelocked")
	}
}

// poke wakes the invoker with a toolstack-style write under the backend
// directory.
func (r *backendRig) poke(t *testing.T, bp string) {
	t.Helper()
	r.bus.Store().Write(bp+"/"+xenstore.KeyOnline, "1")
	r.run(t)
}

func TestBackendAdvertisesOnceAndWatchesUnreadyFrontendOnce(t *testing.T) {
	r := newBackendRig()
	fp, bp := r.plug(3, 0)
	r.run(t)
	for i := 0; i < 3; i++ {
		r.poke(t, bp)
	}
	if r.dev.advertised != 1 {
		t.Fatalf("features advertised %d times, want 1", r.dev.advertised)
	}
	if !r.bus.ReadFeature(bp, xenstore.KeyFeatureRxCopy) {
		t.Fatal("advertised feature missing from the backend directory")
	}
	if n := r.bus.ReadNumQueues(bp, xenstore.KeyMultiQueueMaxQueues); n != 2 {
		t.Fatalf("advertised %d queues, want 2 (one per driver-domain vCPU)", n)
	}
	if s := r.bus.State(bp); s != StateInitWait {
		t.Fatalf("backend state = %v, want InitWait", s)
	}
	if n := r.be.Invocations(); n != 0 {
		t.Fatalf("invocations = %d before the frontend was ready", n)
	}
	// Every pass above found the frontend unready; only the first may have
	// watched it, so one frontend state write wakes the invoker once.
	wakes := r.be.thread.Wakes()
	r.bus.Store().Writef(fp+"/"+xenstore.KeyState, "%d", int(StateInitialising))
	r.run(t)
	if d := r.be.thread.Wakes() - wakes; d != 1 {
		t.Fatalf("frontend state write woke the invoker %d times, want 1", d)
	}
}

func TestBackendRetriesConnectNotReady(t *testing.T) {
	r := newBackendRig()
	r.dev.notReady = true
	fp, bp := r.plug(3, 0)
	r.ready(fp, 7)
	r.run(t)
	if n := len(r.be.Instances()); n != 0 {
		t.Fatalf("%d instances from a not-ready connect", n)
	}
	if s := r.bus.State(bp); s != StateInitWait {
		t.Fatalf("backend state = %v after a not-ready connect, want InitWait", s)
	}
	tries := r.be.Invocations()
	if tries == 0 {
		t.Fatal("a ready frontend was never invoked")
	}
	r.dev.notReady = false
	r.poke(t, bp)
	insts := r.be.Instances()
	if len(insts) != 1 || r.bus.State(bp) != StateConnected {
		t.Fatalf("retry left %d instances, backend %v; want 1, Connected", len(insts), r.bus.State(bp))
	}
	if c := insts[0].c; c.FrontPath != fp || c.BackPath != bp || len(c.Ports) != 1 || c.Ports[0] != 7 {
		t.Fatalf("connect saw %+v", c)
	}
	if n := r.be.Invocations(); n != tries+1 {
		t.Fatalf("invocations = %d, want %d (one retry after the not-ready ones)", n, tries+1)
	}
}

func TestBackendConnectErrorCloses(t *testing.T) {
	r := newBackendRig()
	r.dev.fail = true
	fp, bp := r.plug(3, 0)
	r.ready(fp, 7)
	r.run(t)
	if s := r.bus.State(bp); s != StateClosed {
		t.Fatalf("backend state = %v after a failed connect, want Closed", s)
	}
	r.poke(t, bp)
	if n := r.be.Invocations(); n != 1 || len(r.be.Instances()) != 0 {
		t.Fatalf("closed backend retried: invocations %d, instances %d", n, len(r.be.Instances()))
	}
}

func TestBackendPairsInListOrder(t *testing.T) {
	r := newBackendRig()
	// Plugged 2 then 10; the store lists children sorted by name, so "10"
	// pairs first.
	for _, devid := range []int{2, 10} {
		fp, _ := r.plug(3, devid)
		r.ready(fp, 20+devid)
	}
	r.run(t)
	insts := r.be.Instances()
	if len(insts) != 2 || insts[0].c.DevID != 10 || insts[1].c.DevID != 2 {
		t.Fatalf("pairing order wrong: %+v", insts)
	}
	for _, in := range insts {
		if in.c.FrontDom != 3 || in.c.Ports[0] != xen.Port(20+in.c.DevID) {
			t.Fatalf("connect saw %+v", in.c)
		}
	}
}

func TestBackendReadsQueuePorts(t *testing.T) {
	r := newBackendRig()
	fp, _ := r.plug(3, 0)
	r.bus.WriteNumQueues(fp, 2)
	for q := 0; q < 2; q++ {
		r.bus.Store().Writef(QueuePath(fp, q)+"/"+xenstore.KeyEventChannel, "%d", 30+q)
	}
	_ = r.bus.SwitchState(fp, StateInitialised)
	r.run(t)
	insts := r.be.Instances()
	if len(insts) != 1 {
		t.Fatalf("%d instances, want 1", len(insts))
	}
	if p := insts[0].c.Ports; len(p) != 2 || p[0] != 30 || p[1] != 31 {
		t.Fatalf("queue ports = %v, want [30 31]", p)
	}
}

func TestBackendTeardownOnFrontendClosing(t *testing.T) {
	r := newBackendRig()
	tenants := r.be.Fleet()
	fp3, bp3 := r.plug(3, 0)
	fp4, _ := r.plug(4, 0)
	r.ready(fp3, 7)
	r.ready(fp4, 8)
	r.run(t)
	if cpu := r.be.thread.CPU(); cpu != r.dd.CPUs.CPU(1) {
		t.Fatal("fleet invoker is not on the domain's last vCPU")
	}
	if tenants.Len() != 2 || len(r.be.Instances()) != 2 {
		t.Fatalf("%d tenants, %d instances; want 2, 2", tenants.Len(), len(r.be.Instances()))
	}
	if tn := tenants.Tenants()[0]; tn.Dom != 3 || tn.Vifs != 1 || tn.Lane != 1 {
		t.Fatalf("tenant ledger recorded %+v", tn)
	}
	closed := r.be.Instances()[0]

	_ = r.bus.SwitchState(fp3, StateClosing)
	r.run(t)
	insts := r.be.Instances()
	if len(insts) != 1 || insts[0].c.FrontDom != 4 {
		t.Fatalf("attach order after teardown: %+v", insts)
	}
	if len(r.dev.down) != 1 || r.dev.down[0] != closed {
		t.Fatalf("disconnected %+v, want the domain 3 instance", r.dev.down)
	}
	if s := r.bus.State(bp3); s != StateClosed {
		t.Fatalf("torn-down backend state = %v, want Closed", s)
	}
	if tenants.Len() != 1 || tenants.Tenants()[0].Dom != 4 {
		t.Fatalf("tenant ledger after teardown: %+v", tenants.Tenants())
	}
	if r.bus.Store().Exists(TenantPath(DomID(r.dd.ID), 3)) {
		t.Fatal("detached tenant's xenstore subtree survived")
	}
	if att, det := tenants.Churn(); att != 2 || det != 1 {
		t.Fatalf("churn = %d attaches, %d detaches; want 2, 1", att, det)
	}
	if n := r.be.Invocations(); n != 2 {
		t.Fatalf("invocations = %d, want 2", n)
	}
}
