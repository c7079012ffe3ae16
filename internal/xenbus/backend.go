package xenbus

import (
	"errors"
	"strconv"

	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenstore"
)

// scanCost is the CPU cost of one backend-invocation pass (xenstore reads
// are charged separately via their latency).
const scanCost = 5 * sim.Microsecond

// ErrNotReady is what Device.Connect returns when the frontend announced
// itself but has not published everything the backend needs (its rings,
// a steering seed); a later wake retries the pairing.
var ErrNotReady = errors.New("xenbus: frontend not ready")

// Conn is one ready frontend the invoker is pairing with a backend
// instance.
type Conn struct {
	BackPath  string
	FrontPath string
	FrontDom  xen.DomID
	DevID     int
	Ports     []xen.Port // the frontend's event channel per queue
}

// Device is the device-specific half of a PV backend (netback's VIFs,
// blkback's vbds); Backend runs the protocol around it.
type Device[I any] interface {
	// Advertise runs on every pairing attempt at a backend that is not
	// closing, given the state read at the start of the attempt. At
	// StateInitialising it publishes the feature keys; Backend then
	// advertises the queue limit and moves the backend to InitWait. An
	// error closes the backend.
	Advertise(backPath string, s State) error
	// Connect builds the instance serving c and returns it with the fleet
	// lane to record in the tenant ledger (-1 for none). ErrNotReady
	// leaves the backend for a later wake; any other error closes it.
	Connect(c Conn) (inst I, lane int, err error)
	// Disconnect tears an instance down after its frontend closed.
	Disconnect(inst I)
}

// Instance constrains what a Device builds: one paired backend instance,
// which knows the frontend domain it serves.
type Instance interface {
	comparable
	FrontDom() xen.DomID
}

// Backend is the backend-invocation driver of §4.1, shared by every PV
// backend: a watch on the driver domain's backend subtree for one device
// type wakes a dedicated invoker thread, which pairs each waiting
// frontend with a fresh device instance through the xenbus handshake
// (Initialising → InitWait → Connected) and tears the instance down when
// the frontend closes. It is the single-process replacement for Linux's
// `xl devd` + hotplug scripts.
//
//kite:deterministic
type Backend[I Instance] struct {
	eng         *sim.Engine
	dom         *xen.Domain
	bus         *Bus
	typ         string
	root        string
	maxQueues   int
	dev         Device[I]
	wakeLatency sim.Time

	cpu    *sim.CPU  // the invoker's vCPU
	thread *sim.Task // the invoker, created at its first wake

	live     map[string]I               // by backend path
	order    []I                        // live instances in attach order (deterministic walks)
	watched  map[string]*xenstore.Watch // frontend path -> its readiness watch
	teardown map[string]*xenstore.Watch // backend path -> its instance's teardown watch
	dirs     map[string]string          // frontend domid -> its directory under root
	key      []byte                     // scan's backend-path scratch buffer
	tenants  *TenantRegistry

	invocations uint64
}

// NewBackend starts serving typ devices (xenstore.DevVif, DevVbd) in dom
// through dev. It offers one queue per driver-domain vCPU, up to
// maxQueues (the protocol's cap, like the backends' max_queues module
// parameter). The invoker runs on vCPU 0 unless Shard moves it.
func NewBackend[I Instance](eng *sim.Engine, dom *xen.Domain, bus *Bus,
	typ string, maxQueues int, wakeLatency sim.Time, dev Device[I]) *Backend[I] {

	b := &Backend[I]{
		eng: eng, dom: dom, bus: bus, typ: typ, maxQueues: maxQueues, dev: dev, wakeLatency: wakeLatency,
		root:     BackendRoot(DomID(dom.ID), typ),
		cpu:      dom.CPUs.CPU(0),
		live:     make(map[string]I),
		watched:  make(map[string]*xenstore.Watch),
		teardown: make(map[string]*xenstore.Watch),
		dirs:     make(map[string]string),
	}
	bus.Store().Watch(b.root, b.name(), func(string, string) { b.wake() })
	return b
}

func (b *Backend[I]) name() string { return b.dom.Name + "/" + b.typ + "-invoker" }

// Shard moves the invoker to the domain's last vCPU, leaving the vCPUs
// below it to the device's queue or lane workers. Must be called before
// the engine runs.
func (b *Backend[I]) Shard() { b.cpu = b.dom.CPUs.CPU(b.dom.CPUs.Len() - 1) }

// Fleet shards the backend and starts the tenant ledger it reports every
// attach and detach to, which it returns.
func (b *Backend[I]) Fleet() *TenantRegistry {
	b.Shard()
	b.tenants = NewTenantRegistry(b.bus, DomID(b.dom.ID))
	return b.tenants
}

// Instances returns the live instances in attach order.
func (b *Backend[I]) Instances() []I {
	out := make([]I, len(b.order))
	copy(out, b.order)
	return out
}

// Invocations returns how many pairing attempts reached a ready frontend.
func (b *Backend[I]) Invocations() uint64 { return b.invocations }

// wake runs the invoker. Its task is created on the first wake, after
// Shard has had its say, so it is built once on its final vCPU.
func (b *Backend[I]) wake() {
	if b.thread == nil {
		b.thread = sim.NewTask(b.eng, b.cpu, b.name(), b.wakeLatency, b.scan)
	}
	b.thread.Wake()
}

// scan is the invoker body: walk the backend subtree and pair any
// unpaired frontend. Walking paired devices allocates nothing: listings
// are the store's cached ones, each frontend's directory path is built
// once, and the live-instance lookup keys on a reused buffer.
func (b *Backend[I]) scan() {
	b.dom.CPUs.Charge(scanCost)
	st := b.bus.Store()
	for _, frontStr := range st.List(b.root) {
		frontDom, err := strconv.Atoi(frontStr)
		if err != nil {
			continue
		}
		dir, ok := b.dirs[frontStr]
		if !ok {
			dir = b.root + "/" + frontStr
			b.dirs[frontStr] = dir
		}
		for _, devStr := range st.List(dir) {
			devid, err := strconv.Atoi(devStr)
			if err != nil {
				continue
			}
			b.key = append(append(append(b.key[:0], dir...), '/'), devStr...)
			if _, exists := b.live[string(b.key)]; !exists {
				b.pair(string(b.key), xen.DomID(frontDom), devid)
			}
		}
	}
}

func (b *Backend[I]) pair(backPath string, frontDom xen.DomID, devid int) {
	st := b.bus.Store()
	frontPath, ok := st.Read(backPath + "/" + xenstore.KeyFrontend)
	if !ok {
		return
	}
	s := b.bus.State(backPath)
	if s == StateClosed || s == StateClosing {
		return
	}
	if err := b.dev.Advertise(backPath, s); err != nil {
		_ = b.bus.SwitchState(backPath, StateClosed)
		return
	}
	if s == StateInitialising {
		maxq := b.dom.CPUs.Len()
		if maxq > b.maxQueues {
			maxq = b.maxQueues
		}
		st.Writef(backPath+"/"+xenstore.KeyMultiQueueMaxQueues, "%d", maxq)
		_ = b.bus.SwitchState(backPath, StateInitWait)
	}

	fs := b.bus.State(frontPath)
	if fs != StateInitialised && fs != StateConnected {
		// Frontend not ready: watch it (once) and retry on transitions.
		if b.watched[frontPath] == nil {
			b.watched[frontPath] = b.bus.OnStateChange(frontPath, func(State) { b.thread.Wake() })
		}
		return
	}

	b.invocations++
	// Multi-queue frontends publish per-queue event channels under
	// queue-N/; single-queue ones keep the legacy flat key.
	ports := make([]xen.Port, b.bus.ReadNumQueues(frontPath, xenstore.KeyMultiQueueNumQueues))
	for i := range ports {
		dir := frontPath
		if len(ports) > 1 {
			dir = QueuePath(frontPath, i)
		}
		port, ok := st.ReadInt(dir + "/" + xenstore.KeyEventChannel)
		if !ok {
			return
		}
		ports[i] = xen.Port(port)
	}
	inst, lane, err := b.dev.Connect(Conn{
		BackPath: backPath, FrontPath: frontPath, FrontDom: frontDom, DevID: devid, Ports: ports,
	})
	if errors.Is(err, ErrNotReady) {
		return
	}
	if err != nil {
		_ = b.bus.SwitchState(backPath, StateClosed)
		return
	}
	b.live[backPath] = inst
	b.order = append(b.order, inst)
	if b.tenants != nil {
		b.tenants.Attach(DomID(frontDom), b.typ, lane)
	}
	_ = b.bus.SwitchState(backPath, StateConnected)

	// Tear the instance down when the frontend goes away.
	b.teardown[backPath] = b.bus.OnStateChange(frontPath, func(s State) {
		if s == StateClosing || s == StateClosed || s == StateUnknown {
			b.remove(backPath, frontPath)
		}
	})
}

// remove tears down the instance at backPath and drops the watches it
// held on its frontend: the readiness watch and the teardown watch. A
// reattached frontend comes back under a new device path, so nothing
// still needs them.
func (b *Backend[I]) remove(backPath, frontPath string) {
	inst, ok := b.live[backPath]
	if !ok {
		return
	}
	delete(b.live, backPath)
	st := b.bus.Store()
	st.Unwatch(b.teardown[backPath])
	delete(b.teardown, backPath)
	if w := b.watched[frontPath]; w != nil {
		st.Unwatch(w)
		delete(b.watched, frontPath)
	}
	for i, x := range b.order {
		if x == inst {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	b.dev.Disconnect(inst)
	if b.tenants != nil {
		b.tenants.Detach(DomID(inst.FrontDom()), b.typ)
	}
	if st.Exists(backPath) {
		_ = b.bus.SwitchState(backPath, StateClosed)
	}
}
