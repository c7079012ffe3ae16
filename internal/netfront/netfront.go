// Package netfront implements the paravirtual network frontend driver that
// runs inside DomU guests. It exposes the netstack.NetIf interface — the
// guest's network stack uses it exactly like a physical NIC — and speaks
// the netif ring protocol to whatever netback serves it (Linux or Kite;
// the frontend is identical in both cases, which is the paper's point:
// guests need no modification, §2.2).
//
// Frames arrive and leave as pooled buffers. Tx grants are persistent:
// each ring slot lazily allocates one page and grants it to the backend
// once, then reuses page and grant for the device's lifetime — the same
// recycling the Rx path always had, and what lets the backend keep
// persistent mappings of our pages (§3.3).
//
// The transport is multi-queue (xen-netfront's multi-queue protocol): the
// frontend reads the backend's "multi-queue-max-queues" advertisement
// during the xenbus handshake, answers with "multi-queue-num-queues", and
// publishes one ring pair + event channel per queue under "queue-N/" keys
// (flat legacy keys when single-queue). Tx frames are steered by a
// deterministic RSS Toeplitz hash over the IPv4 4-tuple so each flow stays
// on one queue and in order; non-IP traffic rides queue 0.
//
// When the rig runs a sharded cluster (Config.Shards), each queue is pinned
// to one cluster shard and one guest vCPU: its ring work, event channel,
// and Rx buffer arena live entirely on that shard, and the only cross-shard
// traffic is the qdisc hand-off from the stack (shard 0) to the queue and
// the delivery of received frames back — both conservative posts riding the
// guest's softirq dispatch latency.
package netfront

import (
	"fmt"

	"kite/internal/framepool"
	"kite/internal/mem"
	"kite/internal/netif"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// txBacklogCap bounds the qdisc backlog (frames) per queue.
const txBacklogCap = 1024

// shardHandoff is the stack<->queue dispatch latency when queues are pinned
// to cluster shards: the cost of handing a frame to another vCPU's softirq
// context. It is also each post's conservative lookahead bound, so it must
// be at least the cluster's lookahead.
const shardHandoff = 2 * sim.Microsecond

// Stats counts frontend activity, aggregated over queues in queue order.
type Stats struct {
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	TxRingFull         uint64
	TxErrors           uint64
}

// txSlot is a persistently granted Tx page, reused across frames.
type txSlot struct {
	page     *mem.Page
	ref      xen.GrantRef
	inFlight bool
}

type rxBuf struct {
	page *mem.Page
	ref  xen.GrantRef
}

// queue is one Tx/Rx ring pair with its own event channel, persistent Tx
// slots, posted Rx buffers, and qdisc backlog — the per-queue state real
// netfront keeps in struct netfront_queue.
type queue struct {
	d    *Device
	id   int
	eng  *sim.Engine // this queue's shard engine (the device engine unsharded)
	cpu  *sim.CPU    // pinned guest vCPU when sharded, nil otherwise
	tx   *netif.TxRing
	rx   *netif.RxRing
	port xen.Port

	// txSlots[1..RingSize] are persistently granted Tx pages, preallocated
	// at connect so the steady state never touches the arena or grant table
	// (and the map lookup the old lazy cache paid is gone).
	txSlots [netif.RingSize + 1]txSlot
	txFree  []uint16
	// txBacklog queues frames while this queue's ring is full (the guest's
	// per-queue qdisc); reapTx drains it as slots free up. Each entry holds
	// one buffer reference.
	txBacklog sim.FIFO[*framepool.Buf]
	rxBufs    [netif.RingSize]rxBuf

	// rxArena partitions the frame pool per queue when sharded, so Rx
	// buffers recycle on this queue's shard; nil means the shared pool.
	rxArena *framepool.Arena

	// enqueueF is the cached cross-shard qdisc hand-off target.
	enqueueF func(any)

	// pending holds batch-delivered Tx frames, stamped with their qdisc
	// arrival times, until they mature; replay admits each to the ring at
	// exactly the time a per-frame hand-off post would have delivered it.
	pending sim.FIFO[stamped]
	replay  *sim.Batch

	// stage accumulates one SendBatch call's frames bound for this queue
	// until the carrier is posted. Touched only on the device shard.
	stage *sendBatch

	stats Stats
}

// stamped is one batched Tx frame with its maturity on the queue's clock.
// Each entry holds one buffer reference.
type stamped struct {
	at    sim.Time
	frame *framepool.Buf
}

// sendBatch carries one flush's worth of frames for one queue across the
// shard boundary in a single post, then rides a release post back to the
// device shard's free list.
type sendBatch struct {
	q       *queue
	entries []stamped
}

// Device is one vif frontend instance.
type Device struct {
	eng     *sim.Engine
	dom     *xen.Domain
	bus     *xenbus.Bus
	reg     *netif.Registry
	devID   int
	backDom xen.DomID
	mac     netpkt.MAC
	pool    *framepool.Pool

	frontPath  string
	backPath   string
	stateWatch *xenstore.Watch // the backend-state watch driving the handshake

	wantQueues int
	hashSeed   uint64
	rss        netpkt.RSS
	queues     []*queue
	shards     []*sim.Engine
	rxAlive    bool
	started    bool

	recv    func(frame *framepool.Buf)
	recvF   func(any) // cached post target delivering a frame to the stack
	onReady func()
	onDown  func() // carrier loss: the backend disappeared
	ready   bool

	// Batched-send plumbing: recycled carriers plus the cached post targets
	// that run a carrier on its queue's shard and return it here.
	batchFree  []*sendBatch
	runBatchF  func(any)
	batchFreeF func(any)
}

// Config describes a frontend to create.
type Config struct {
	Dom      *xen.Domain
	Bus      *xenbus.Bus
	Registry *netif.Registry
	DevID    int
	BackDom  xen.DomID
	MAC      netpkt.MAC
	// Pool supplies frame buffers for the Rx path (nil for a private pool).
	Pool *framepool.Pool
	// Queues requests a queue count; the handshake negotiates
	// min(Queues, backend's multi-queue-max-queues). 0 means 1.
	Queues int
	// HashSeed seeds the RSS steering hash (shared with the backend through
	// xenstore so both ends agree); 0 selects a deterministic per-device
	// default.
	HashSeed uint64
	// Shards pins queue i's ring processing to Shards[i] (a cluster shard
	// engine) on guest vCPU i; the device engine itself must be shard 0 of
	// the same cluster. The guest needs at least len(Shards)+1 vCPUs so the
	// stack keeps a vCPU of its own. nil runs every queue on the device
	// engine (the classic single-heap mode).
	Shards []*sim.Engine
	// OnReady fires when the device reaches Connected on both ends.
	OnReady func()
}

// New creates the frontend for an already tool-stack-created vif device
// and begins negotiation.
func New(eng *sim.Engine, cfg Config) *Device {
	pool := cfg.Pool
	if pool == nil {
		pool = framepool.New()
	}
	wantQueues := cfg.Queues
	if wantQueues < 1 {
		wantQueues = 1
	}
	if wantQueues > netif.MaxQueues {
		wantQueues = netif.MaxQueues
	}
	seed := cfg.HashSeed &^ (1 << 63) // survives the decimal int round trip
	if seed == 0 {
		seed = 0x6b697465<<16 ^ uint64(cfg.Dom.ID)<<8 ^ uint64(cfg.DevID)
	}
	d := &Device{
		eng:        eng,
		dom:        cfg.Dom,
		bus:        cfg.Bus,
		reg:        cfg.Registry,
		devID:      cfg.DevID,
		backDom:    cfg.BackDom,
		mac:        cfg.MAC,
		pool:       pool,
		wantQueues: wantQueues,
		hashSeed:   seed,
		rss:        netpkt.NewRSS(seed),
		shards:     cfg.Shards,
		onReady:    cfg.OnReady,
	}
	d.recvF = func(a any) {
		if d.recv != nil {
			d.recv(a.(*framepool.Buf))
		}
	}
	d.runBatchF = d.runBatch
	d.batchFreeF = func(a any) {
		d.batchFree = append(d.batchFree, a.(*sendBatch)) //kite:alloc-ok free list grows to the in-flight high-water mark
	}
	d.frontPath = xenbus.FrontendPath(xenbus.DomID(cfg.Dom.ID), xenstore.DevVif, cfg.DevID)
	d.backPath = xenbus.BackendPath(xenbus.DomID(cfg.BackDom), xenstore.DevVif, xenbus.DomID(cfg.Dom.ID), cfg.DevID)
	d.start()
	return d
}

// MAC implements netstack.NetIf.
func (d *Device) MAC() netpkt.MAC { return d.mac }

// SetRecv implements netstack.NetIf. The callback receives one buffer
// reference per frame and owns it.
func (d *Device) SetRecv(fn func(frame *framepool.Buf)) { d.recv = fn }

// SetOnDown registers the carrier-loss callback, invoked when the backend
// disappears (driver domain crash, or teardown while the guest lives on).
// The stack uses it to flush state — queued ARP-pending packets — that
// can never resolve through a dead device.
func (d *Device) SetOnDown(fn func()) { d.onDown = fn }

// Stats returns the counters aggregated over queues in queue order.
func (d *Device) Stats() Stats {
	var s Stats
	for _, q := range d.queues {
		s.TxFrames += q.stats.TxFrames
		s.RxFrames += q.stats.RxFrames
		s.TxBytes += q.stats.TxBytes
		s.RxBytes += q.stats.RxBytes
		s.TxRingFull += q.stats.TxRingFull
		s.TxErrors += q.stats.TxErrors
	}
	return s
}

// NumQueues returns the negotiated queue count (0 before negotiation).
func (d *Device) NumQueues() int { return len(d.queues) }

// Ready reports whether the device is connected end to end.
func (d *Device) Ready() bool { return d.ready }

// start begins the frontend's side of the xenbus handshake: watch the
// backend and allocate/publish rings once it reaches InitWait and its
// queue-count advertisement is readable (the same ordering real netfront
// follows, and what blkfront here always did). A Closed backend is final
// for this device: xenbus.Backend never re-pairs it, and a replug builds a
// new Device on a new device path, so the watch goes with it.
func (d *Device) start() {
	d.stateWatch = d.bus.OnStateChange(d.backPath, func(s xenbus.State) {
		switch s {
		case xenbus.StateInitWait:
			if !d.started {
				d.initRings()
			}
		case xenbus.StateConnected:
			if !d.ready {
				d.connect()
			}
		case xenbus.StateClosing:
			d.backendGone()
		case xenbus.StateClosed:
			d.backendGone()
			d.bus.Store().Unwatch(d.stateWatch)
		}
	})
}

// initRings negotiates the queue count, allocates per-queue rings and event
// channels, publishes everything, and moves to Initialised.
func (d *Device) initRings() {
	d.started = true
	st := d.bus.Store()
	nq := d.wantQueues
	if max := d.bus.ReadNumQueues(d.backPath, xenstore.KeyMultiQueueMaxQueues); nq > max {
		nq = max
	}

	sharded := len(d.shards) > 0
	if sharded {
		if nq > len(d.shards) {
			panic(fmt.Sprintf("netfront: %d queues but only %d shards", nq, len(d.shards)))
		}
		if d.dom.CPUs.Len() < nq+1 {
			panic(fmt.Sprintf("netfront: sharded guest needs %d vCPUs, has %d", nq+1, d.dom.CPUs.Len()))
		}
	}
	ch := netif.NewChannel(nq)
	d.queues = make([]*queue, nq)
	for i := 0; i < nq; i++ {
		q := &queue{
			d:   d,
			id:  i,
			eng: d.eng,
			tx:  ch.Tx.Queue(i),
			rx:  ch.Rx.Queue(i),
		}
		if sharded {
			// Queue i lives on shard i's engine, on guest vCPU i; the stack
			// keeps the last vCPU. The Rx arena recycles on the same shard.
			// Every stack<->queue dispatch models at least shardHandoff of
			// latency: declare it as the edge bound for the pair.
			q.eng = d.shards[i]
			sim.DeclareLink(d.eng, q.eng, shardHandoff)
			q.cpu = d.dom.CPUs.CPU(i)
			q.cpu.SetEngine(q.eng)
			q.rxArena = d.pool.NewArena()
			q.rxArena.SetHome(q.eng)
			q.replay = sim.NewBatch(q.eng, q.replayPending)
		}
		q.enqueueF = func(a any) { q.enqueue(a.(*framepool.Buf)) }
		q.port = d.dom.AllocUnbound(d.backDom)
		if err := d.dom.SetHandler(q.port, q.onEvent); err != nil {
			panic(fmt.Sprintf("netfront: %v", err))
		}
		if q.cpu != nil {
			d.dom.BindPortCPU(q.port, q.cpu)
		}
		d.queues[i] = q
	}
	d.reg.Publish(d.dom.ID, d.devID, ch)

	if nq == 1 {
		// Legacy flat keys, exactly like a single-queue netfront.
		st.Writef(d.frontPath+"/"+xenstore.KeyTxRingRef, "%d", d.devID*2+1)
		st.Writef(d.frontPath+"/"+xenstore.KeyRxRingRef, "%d", d.devID*2+2)
		st.Writef(d.frontPath+"/"+xenstore.KeyEventChannel, "%d", d.queues[0].port)
	} else {
		d.bus.WriteNumQueues(d.frontPath, nq)
		st.Writef(d.frontPath+"/"+xenstore.KeyMultiQueueHashSeed, "%d", d.hashSeed)
		for i, q := range d.queues {
			qp := xenbus.QueuePath(d.frontPath, i)
			st.Writef(qp+"/"+xenstore.KeyTxRingRef, "%d", d.devID*16+i*2+1)
			st.Writef(qp+"/"+xenstore.KeyRxRingRef, "%d", d.devID*16+i*2+2)
			st.Writef(qp+"/"+xenstore.KeyEventChannel, "%d", q.port)
		}
	}
	st.Write(d.frontPath+"/"+xenstore.KeyMac, d.mac.String())
	d.bus.WriteFeature(d.frontPath, xenstore.KeyRequestRxCopy, true)
	if err := d.bus.SwitchState(d.frontPath, xenbus.StateInitialised); err != nil {
		panic(fmt.Sprintf("netfront: %v", err))
	}
}

// connect finishes the handshake: post every queue's full Rx buffer set and
// go Connected.
func (d *Device) connect() {
	// Page and grant setup touches the guest arena and grant table, both
	// owned by the device shard; after connect the tables are frozen, so
	// queue shards may read them.
	for _, q := range d.queues {
		q.preallocTx()
		for i := 0; i < netif.RingSize; i++ {
			page := d.dom.Arena.MustAlloc()
			ref := d.dom.GrantAccess(d.backDom, page, false)
			q.rxBufs[i] = rxBuf{page: page, ref: ref}
		}
	}
	d.rxAlive = true
	for _, q := range d.queues {
		if q.eng != d.eng {
			// The queue's rings and event channel are owned by its shard:
			// hand the initial Rx post and kick over conservatively.
			d.eng.Post(q.eng, shardHandoff, sim.PriData, postInitialRxArg, q)
		} else {
			q.postInitialRx()
		}
	}
	if err := d.bus.SwitchState(d.frontPath, xenbus.StateConnected); err != nil {
		panic(fmt.Sprintf("netfront: %v", err))
	}
	d.ready = true
	if d.onReady != nil {
		d.onReady()
	}
}

// postInitialRxArg is the long-lived post target for connect-time Rx setup.
var postInitialRxArg = func(a any) { a.(*queue).postInitialRx() }

// postInitialRx fills the Rx ring with the full posted-buffer set and kicks
// the backend. Runs on the queue's shard.
func (q *queue) postInitialRx() {
	for i := 0; i < netif.RingSize; i++ {
		if !q.rx.PushRequest(netif.RxRequest{ID: uint16(i), Ref: q.rxBufs[i].ref}) {
			panic("netfront: fresh rx ring full")
		}
	}
	if q.rx.PushRequestsAndCheckNotify() {
		q.d.dom.Notify(q.port)
	}
}

// preallocTx allocates and grants every persistent Tx page up front, so the
// send path never touches the arena, the grant table, or a growing map. The
// free-id stack is rebuilt each (re)connect, skipping ids still in flight.
func (q *queue) preallocTx() {
	d := q.d
	if q.txFree == nil {
		q.txFree = make([]uint16, 0, netif.RingSize)
	}
	q.txFree = q.txFree[:0]
	for id := netif.RingSize; id >= 1; id-- {
		s := &q.txSlots[id]
		if s.page == nil {
			s.page = d.dom.Arena.MustAlloc()
			s.ref = d.dom.GrantAccess(d.backDom, s.page, true)
		}
		if !s.inFlight {
			q.txFree = append(q.txFree, uint16(id))
		}
	}
}

// backendGone quiesces the device when its backend disappears (driver
// domain crash/restart). Backlogged frames are released; sends fail until
// a new backend connects. Persistent Tx grants stay in place — the same
// slots are reused after a reattach (and EndAccess would fail anyway while
// the backend still holds mappings).
func (d *Device) backendGone() {
	if !d.ready {
		return
	}
	d.ready = false
	d.rxAlive = false
	for _, q := range d.queues {
		for q.txBacklog.Len() > 0 {
			q.txBacklog.Pop().Release()
		}
		for q.pending.Len() > 0 {
			q.pending.Pop().frame.Release()
		}
	}
	if d.onDown != nil {
		d.onDown()
	}
}

// Send implements netstack.NetIf: steer the frame to its queue by RSS flow
// hash, then copy it into a persistently granted page, push a Tx request,
// and kick the backend — on the queue's shard when sharded, via the qdisc
// hand-off post. Send consumes the caller's buffer reference on every path,
// including failures.
//
//kite:hotpath
func (d *Device) Send(frame *framepool.Buf) bool {
	if !d.ready {
		frame.Release()
		return false
	}
	q := d.queues[d.rss.Queue(frame.Bytes(), len(d.queues))]
	if q.eng != d.eng {
		// Cross-shard qdisc hand-off: the queue owns the frame from here.
		// Backpressure is absorbed by the queue's backlog, so the hand-off
		// itself always succeeds.
		d.eng.Post(q.eng, shardHandoff, sim.PriData, q.enqueueF, frame) //kite:alloc-ok pointer boxing does not allocate
		return true
	}
	return q.enqueue(frame)
}

// BatchCapable implements netstack.BatchSender: the stamped batch hand-off
// is only worth a carrier when queues live on other shards — unsharded, Send
// is already a direct call.
func (d *Device) BatchCapable() bool { return len(d.shards) > 0 }

// SendBatch implements netstack.BatchSender: steer every frame of the burst
// to its queue, then cross each shard boundary once — one carrier post per
// queue instead of one qdisc hand-off post per frame. Frames may arrive
// before their stamps mature; the queue shard replays each into the ring at
// exactly stamp+shardHandoff, the time its own per-frame post would have
// landed, so the event timeline is unchanged while the per-frame post and
// merge traffic disappears. Consumes one reference per frame on every path.
//
//kite:hotpath
func (d *Device) SendBatch(frames []netstack.TimedFrame) {
	for i := range frames {
		f := &frames[i]
		if !d.ready {
			f.Frame.Release()
			continue
		}
		q := d.queues[d.rss.Queue(f.Frame.Bytes(), len(d.queues))]
		if q.eng == d.eng {
			q.enqueue(f.Frame)
			continue
		}
		if q.stage == nil {
			q.stage = d.takeBatch(q)
		}
		q.stage.entries = append(q.stage.entries, //kite:alloc-ok entries grow to the burst high-water mark, then recycle
			stamped{at: f.At + shardHandoff, frame: f.Frame})
	}
	for _, q := range d.queues {
		if q.stage == nil {
			continue
		}
		delay := q.stage.entries[0].at - d.eng.Now()
		if delay < shardHandoff {
			delay = shardHandoff
		}
		d.eng.Post(q.eng, delay, sim.PriData, d.runBatchF, q.stage) //kite:alloc-ok pointer boxing does not allocate
		q.stage = nil
	}
}

// takeBatch pops a recycled carrier for q, or builds one with ring-deep
// entry capacity.
func (d *Device) takeBatch(q *queue) *sendBatch {
	if n := len(d.batchFree); n > 0 {
		bt := d.batchFree[n-1]
		d.batchFree = d.batchFree[:n-1]
		bt.q = q
		return bt
	}
	return &sendBatch{q: q, entries: make([]stamped, 0, netif.RingSize)} //kite:alloc-ok carrier set grows to the in-flight high-water mark
}

// runBatch executes a carrier on its queue's shard: move the stamped frames
// onto the queue's pending FIFO, send the carrier home, and admit whatever
// has matured.
func (d *Device) runBatch(a any) {
	bt := a.(*sendBatch)
	q := bt.q
	for i := range bt.entries {
		q.pending.Push(bt.entries[i])
		bt.entries[i] = stamped{}
	}
	bt.entries = bt.entries[:0]
	bt.q = nil
	q.eng.Post(d.eng, shardHandoff, sim.PriRelease, d.batchFreeF, bt) //kite:alloc-ok pointer boxing does not allocate
	q.replayPending()
}

// replayPending admits every matured pending frame to the ring, then
// re-arms one doorbell quantum past the head stamp instead of at the head
// stamp itself. Each replay fire therefore admits a whole quantum's worth
// of frames in one visit — the shard-crossing analogue of xmit_more/IRQ
// coalescing in real pv drivers. A frame is only ever admitted at or after
// its own stamp, so admission never races ahead of guest production; the
// price is up to one quantum of added queueing latency per frame.
func (q *queue) replayPending() {
	now := q.eng.Now()
	for q.pending.Len() > 0 && q.pending.Peek().at <= now {
		q.enqueue(q.pending.Pop().frame)
	}
	if p := q.pending.Peek(); p != nil {
		q.replay.Arm(p.at + shardHandoff)
	}
}

// enqueue runs on the queue's shard: validate the frame, push it into the
// ring (or the qdisc backlog while the ring is full), kick the backend.
func (q *queue) enqueue(frame *framepool.Buf) bool {
	if frame.Len() > mem.PageSize {
		q.stats.TxErrors++
		frame.ReleaseOn(q.eng)
		return false
	}
	if q.tx.Full() {
		if q.txBacklog.Len() >= txBacklogCap {
			q.stats.TxRingFull++
			frame.ReleaseOn(q.eng)
			return false
		}
		q.txBacklog.Push(frame)
		return true
	}
	if !q.pushTx(frame) {
		return false
	}
	if q.tx.PushRequestsAndCheckNotify() {
		q.d.dom.Notify(q.port)
	}
	return true
}

// pushTx copies one frame into a Tx slot and pushes its request, consuming
// the buffer reference. The caller batches the notify check.
func (q *queue) pushTx(frame *framepool.Buf) bool {
	slot, id, ok := q.allocTxSlot()
	if !ok {
		q.stats.TxErrors++
		frame.Release()
		return false
	}
	n := frame.Len()
	slot.page.CopyInto(0, frame.Bytes())
	slot.inFlight = true
	frame.ReleaseOn(q.eng)
	q.tx.PushRequest(netif.TxRequest{ID: id, Ref: slot.ref, Offset: 0, Len: n})
	q.stats.TxFrames++
	q.stats.TxBytes += uint64(n)
	return true
}

// allocTxSlot pops a free persistent Tx slot (preallocated at connect).
func (q *queue) allocTxSlot() (*txSlot, uint16, bool) {
	n := len(q.txFree)
	if n == 0 {
		return nil, 0, false
	}
	id := q.txFree[n-1]
	q.txFree = q.txFree[:n-1]
	return &q.txSlots[id], id, true
}

// onEvent is the queue's interrupt handler: reap Tx completions and deliver
// Rx frames for this queue only.
//
//kite:hotpath
func (q *queue) onEvent() {
	q.reapTx()
	q.reapRx()
}

func (q *queue) reapTx() {
	defer q.drainBacklog()
	for {
		rsp, ok := q.tx.TakeResponse()
		if !ok {
			if q.tx.FinalCheckForResponses() {
				continue
			}
			return
		}
		if rsp.ID == 0 || int(rsp.ID) > netif.RingSize {
			continue // backend answered an unknown id; ignore
		}
		slot := &q.txSlots[rsp.ID]
		if !slot.inFlight {
			continue
		}
		// The slot's page and grant persist; only the id is recycled.
		slot.inFlight = false
		q.txFree = append(q.txFree, rsp.ID)
		if rsp.Status != netif.StatusOK {
			q.stats.TxErrors++
		}
	}
}

func (q *queue) reapRx() {
	d := q.d
	posted := 0
	for {
		rsp, ok := q.rx.TakeResponse()
		if !ok {
			if q.rx.FinalCheckForResponses() {
				continue
			}
			break
		}
		buf := q.rxBufs[rsp.ID%netif.RingSize]
		if rsp.Status == netif.StatusOK && rsp.Len > 0 &&
			rsp.Offset >= 0 && rsp.Len <= framepool.MaxFrame &&
			rsp.Offset+rsp.Len <= mem.PageSize {
			q.stats.RxFrames++
			q.stats.RxBytes += uint64(rsp.Len)
			if d.recv != nil {
				b := q.getRxBuf()
				copy(b.Extend(rsp.Len), buf.page.Data[rsp.Offset:rsp.Offset+rsp.Len])
				if q.eng != d.eng {
					// Deliver to the stack's shard (softirq dispatch).
					q.eng.Post(d.eng, shardHandoff, sim.PriData, d.recvF, b) //kite:alloc-ok pointer boxing does not allocate
				} else {
					d.recv(b)
				}
			}
		}
		// Recycle the same granted page (Linux netfront's page reuse).
		if d.rxAlive && q.rx.PushRequest(netif.RxRequest{ID: rsp.ID, Ref: buf.ref}) {
			posted++
		}
	}
	if posted > 0 && q.rx.PushRequestsAndCheckNotify() {
		d.dom.Notify(q.port)
	}
}

// getRxBuf draws a delivery buffer from the queue's shard-local arena, or
// the shared pool when unsharded.
func (q *queue) getRxBuf() *framepool.Buf {
	if q.rxArena != nil {
		return q.rxArena.Get()
	}
	return q.d.pool.Get()
}

// EventPort returns queue 0's event channel port (read by the backend from
// xenstore during its handshake).
func (d *Device) EventPort() xen.Port {
	if len(d.queues) == 0 {
		return 0
	}
	return d.queues[0].port
}

// drainBacklog pushes queued qdisc frames into freed ring slots.
func (q *queue) drainBacklog() {
	pushed := false
	for q.txBacklog.Len() > 0 && !q.tx.Full() {
		if q.pushTx(q.txBacklog.Pop()) {
			pushed = true
		}
	}
	if pushed && q.tx.PushRequestsAndCheckNotify() {
		q.d.dom.Notify(q.port)
	}
}
