// Package blkfront implements the paravirtual block frontend driver used
// by DomU guests: a virtual disk whose reads and writes travel the blkif
// ring to a blkback instance in the storage driver domain. It negotiates
// and uses the same optimizations the paper implements in Kite's blkback —
// persistent grant references and indirect segments (§3.3, §4.4) — and
// splits large I/O into as few ring requests as the negotiated limits
// allow.
//
// The transport is multi-queue (blk-mq over blkif, xen-blkfront's
// multi-queue protocol): the frontend reads the backend's
// "multi-queue-max-queues" advertisement, answers with
// "multi-queue-num-queues", and publishes one ring + event channel per
// queue under "queue-N/" keys (flat legacy keys when single-queue).
// Requests are steered by extent: the virtual disk is striped in 512 KiB
// chunks and each stripe belongs to one queue, so a sequential stream
// stays mergeable within its queue and same-sector requests stay ordered.
// Each queue owns its persistent-grant page pool, keeping grant refs
// queue-affine for the backend's per-queue mapping caches.
//
// Read completions borrow a refcounted buffer from a blkpool: the slice
// handed to a ReadSectors callback is valid only for the duration of the
// callback and is recycled afterwards (DESIGN.md §8). Callers that need
// the data longer either copy it or use ReadSectorsInto with their own
// destination. Caller ops, ring-request parts, and the ring-full backlog
// are all pooled/struct-based so the steady-state data path performs no
// heap allocation.
package blkfront

import (
	"fmt"

	"kite/internal/blkif"
	"kite/internal/blkpool"
	"kite/internal/mem"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// stripeSectors is the extent-striping granularity (1024 sectors = 512
// KiB): coarse enough that a maximal 128 KiB indirect request never
// spans queues, so blkback's merge policy still folds consecutive
// requests within a queue.
const stripeSectors = 1024

// Costs models the guest-side software path per request.
type Costs struct {
	PerRequest sim.Time // block layer + driver work per ring request
	PerKBCopy  sim.Time // memcpy per KiB for persistent-grant staging
}

// GuestCosts returns the Ubuntu DomU profile.
func GuestCosts() Costs {
	return Costs{PerRequest: 1200 * sim.Nanosecond, PerKBCopy: 55 * sim.Nanosecond}
}

// Stats counts frontend activity.
type Stats struct {
	Reads, Writes, Flushes uint64
	ReadBytes, WriteBytes  uint64
	RingRequests           uint64
	IndirectRequests       uint64
	QueuedFull             uint64
}

type poolPage struct {
	page *mem.Page
	ref  xen.GrantRef
}

// reqPart tracks one in-flight ring request belonging to a caller op.
// Parts are pooled; every slice keeps its capacity across recycles. segs
// and indRefs must live on the part (not device scratch) because the ring
// slot shares their backing arrays until the backend consumes the request.
type reqPart struct {
	op       blkif.Op
	q        *queue // the hardware queue the part rides (pages return there)
	pages    []poolPage
	indirect []poolPage // descriptor pages (granted, freed after response)
	segs     []blkif.Segment
	indRefs  []xen.GrantRef
	readDst  []byte // for reads: destination slice for this part
	parent   *callerOp
}

// callerOp is one ReadSectors/WriteSectors/Flush invocation. Pooled.
// Exactly one of doneRead/doneErr is set, so write and flush callbacks
// need no allocating adapter closure.
type callerOp struct {
	remaining int
	err       error
	readBuf   []byte
	buf       *blkpool.Buf // pooled backing for readBuf; nil for ReadSectorsInto
	doneRead  func(data []byte, err error)
	doneErr   func(err error)
}

// pendingOp is one backlogged submission waiting for ring space; the
// struct queue replaces a []func() bool closure backlog.
type pendingOp struct {
	op        blkif.Op
	sector    int64
	size      int
	writeData []byte
	readOff   int
	caller    *callerOp
	flush     bool
}

// queue is one hardware queue: its ring, event channel, persistent-grant
// page pool, and ring-full backlog — the per-queue state xen-blkfront
// keeps in struct blkfront_ring_info.
type queue struct {
	d    *Device
	id   int
	ring *blkif.Ring
	port xen.Port

	pool []poolPage // persistent-grant page pool (queue-affine refs)

	pending  []pendingOp // ring-full backlog: retried on completions
	pendHead int
}

// Device is one vbd frontend.
type Device struct {
	eng     *sim.Engine
	dom     *xen.Domain
	bus     *xenbus.Bus
	reg     *blkif.Registry
	devid   int
	backDom xen.DomID
	costs   Costs

	frontPath  string
	backPath   string
	stateWatch *xenstore.Watch // the backend-state watch driving the handshake

	wantQueues int
	queues     []*queue

	persistent  bool
	maxIndirect int
	sectors     int64
	flushOK     bool

	bufs     *blkpool.Pool
	readBufs *blkpool.Arena // device-private partition for read staging
	// inflight is a slot-indexed shadow table (like Linux blkfront's):
	// request IDs are slot+1 and recycle through freeIDs, so the table
	// grows to the in-flight high-water mark (bounded by ring capacity)
	// and never churns — a map keyed by an ever-increasing ID slowly
	// accretes overflow buckets and bleeds heap bytes forever.
	inflight []*reqPart
	freeIDs  []uint64

	partFree   []*reqPart
	callerFree []*callerOp

	ready   bool
	onReady func()

	stats Stats
}

// Config describes the frontend to create.
type Config struct {
	Dom      *xen.Domain
	Bus      *xenbus.Bus
	Registry *blkif.Registry
	DevID    int
	BackDom  xen.DomID
	Costs    Costs
	Pool     *blkpool.Pool // read-buffer pool; private pool when nil
	// Queues requests a hardware-queue count; the handshake negotiates
	// min(Queues, backend's multi-queue-max-queues). 0 means 1.
	Queues  int
	OnReady func()
}

// New creates the frontend for a toolstack-created vbd and starts
// negotiation.
func New(eng *sim.Engine, cfg Config) *Device {
	costs := cfg.Costs
	if costs.PerRequest == 0 {
		costs = GuestCosts()
	}
	bufs := cfg.Pool
	if bufs == nil {
		bufs = blkpool.New()
	}
	wantQueues := cfg.Queues
	if wantQueues < 1 {
		wantQueues = 1
	}
	if wantQueues > blkif.MaxQueues {
		wantQueues = blkif.MaxQueues
	}
	d := &Device{
		eng: eng, dom: cfg.Dom, bus: cfg.Bus, reg: cfg.Registry,
		devid: cfg.DevID, backDom: cfg.BackDom, costs: costs,
		frontPath:  xenbus.FrontendPath(xenbus.DomID(cfg.Dom.ID), xenstore.DevVbd, cfg.DevID),
		backPath:   xenbus.BackendPath(xenbus.DomID(cfg.BackDom), xenstore.DevVbd, xenbus.DomID(cfg.Dom.ID), cfg.DevID),
		wantQueues: wantQueues,
		bufs:       bufs,
		readBufs:   bufs.NewArena(),
		onReady:    cfg.OnReady,
	}
	// A Closed backend is final for this device (xenbus.Backend never
	// re-pairs it), so the watch goes with it.
	d.stateWatch = d.bus.OnStateChange(d.backPath, func(s xenbus.State) {
		switch s {
		case xenbus.StateInitWait:
			if len(d.queues) == 0 {
				d.init()
			}
		case xenbus.StateConnected:
			if !d.ready && len(d.queues) > 0 {
				d.connect()
			}
		case xenbus.StateClosing:
			d.ready = false
		case xenbus.StateClosed:
			d.ready = false
			d.bus.Store().Unwatch(d.stateWatch)
		}
	})
	return d
}

// init reads the backend's advertised features, negotiates the queue
// count, and publishes the rings.
func (d *Device) init() {
	st := d.bus.Store()
	d.persistent = d.bus.ReadFeature(d.backPath, xenstore.KeyFeaturePersistent)
	d.flushOK = d.bus.ReadFeature(d.backPath, xenstore.KeyFeatureFlushCache)
	if v, ok := st.ReadInt(d.backPath + "/" + xenstore.KeyFeatureMaxIndirect); ok {
		d.maxIndirect = int(v)
		if d.maxIndirect > blkif.MaxSegsIndirect {
			d.maxIndirect = blkif.MaxSegsIndirect
		}
	}
	if v, ok := st.ReadInt(d.backPath + "/" + xenstore.KeySectors); ok {
		d.sectors = v
	}

	nq := d.wantQueues
	if max := d.bus.ReadNumQueues(d.backPath, xenstore.KeyMultiQueueMaxQueues); nq > max {
		nq = max
	}
	ch := blkif.NewChannel(nq)
	d.queues = make([]*queue, nq)
	for i := 0; i < nq; i++ {
		q := &queue{d: d, id: i, ring: ch.Rings.Queue(i)}
		q.port = d.dom.AllocUnbound(d.backDom)
		if err := d.dom.SetHandler(q.port, q.onEvent); err != nil {
			panic(fmt.Sprintf("blkfront: %v", err))
		}
		d.queues[i] = q
	}
	d.reg.Publish(d.dom.ID, d.devid, ch)

	if nq == 1 {
		// Legacy flat keys, exactly like a single-queue blkfront.
		st.Writef(d.frontPath+"/"+xenstore.KeyRingRef, "%d", d.devid+100)
		st.Writef(d.frontPath+"/"+xenstore.KeyEventChannel, "%d", d.queues[0].port)
	} else {
		d.bus.WriteNumQueues(d.frontPath, nq)
		for i, q := range d.queues {
			qp := xenbus.QueuePath(d.frontPath, i)
			st.Writef(qp+"/"+xenstore.KeyRingRef, "%d", d.devid+100+i)
			st.Writef(qp+"/"+xenstore.KeyEventChannel, "%d", q.port)
		}
	}
	st.Write(d.frontPath+"/"+xenstore.KeyProtocol, "x86_64-abi")
	d.bus.WriteFeature(d.frontPath, xenstore.KeyFeaturePersistent, d.persistent)
	if err := d.bus.SwitchState(d.frontPath, xenbus.StateInitialised); err != nil {
		panic(fmt.Sprintf("blkfront: %v", err))
	}
}

func (d *Device) connect() {
	d.ready = true
	if err := d.bus.SwitchState(d.frontPath, xenbus.StateConnected); err != nil {
		panic(fmt.Sprintf("blkfront: %v", err))
	}
	if d.onReady != nil {
		d.onReady()
	}
}

// Ready reports whether the device is connected.
func (d *Device) Ready() bool { return d.ready }

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// SectorCount returns the virtual disk size in sectors.
func (d *Device) SectorCount() int64 { return d.sectors }

// Persistent reports whether persistent grants were negotiated.
func (d *Device) Persistent() bool { return d.persistent }

// MaxIndirect returns the negotiated indirect segment limit (0 = none).
func (d *Device) MaxIndirect() int { return d.maxIndirect }

// NumQueues returns the negotiated hardware-queue count (0 before
// negotiation).
func (d *Device) NumQueues() int { return len(d.queues) }

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats { return d.stats }

// BufPool returns the read-buffer pool, for leak accounting: its
// Outstanding() must be zero when no read callback is on the stack.
func (d *Device) BufPool() *blkpool.Pool { return d.bufs }

// maxBytesPerRequest returns the largest single ring request payload.
func (d *Device) maxBytesPerRequest() int {
	if d.maxIndirect > 0 {
		return d.maxIndirect * mem.PageSize
	}
	return blkif.MaxSegsDirect * mem.PageSize
}

// queueFor maps a virtual sector to its hardware queue by stripe.
func (d *Device) queueFor(sector int64) *queue {
	if len(d.queues) == 1 {
		return d.queues[0]
	}
	return d.queues[int((sector/stripeSectors)%int64(len(d.queues)))]
}

// getPage hands out a granted page: from the queue's persistent pool when
// negotiated (grant stays live across requests), else freshly granted.
func (q *queue) getPage() poolPage {
	d := q.d
	if d.persistent {
		if n := len(q.pool); n > 0 {
			p := q.pool[n-1]
			q.pool = q.pool[:n-1]
			return p
		}
	}
	page := d.dom.Arena.MustAlloc()
	ref := d.dom.GrantAccess(d.backDom, page, false)
	return poolPage{page: page, ref: ref}
}

// putPage returns a page after response: to the queue's pool (persistent)
// or revoked and freed.
func (q *queue) putPage(p poolPage) {
	d := q.d
	if d.persistent {
		q.pool = append(q.pool, p)
		return
	}
	if err := d.dom.EndAccess(p.ref); err == nil {
		d.dom.Arena.Free(p.page)
	}
}

func (d *Device) getPart() *reqPart {
	if n := len(d.partFree); n > 0 {
		p := d.partFree[n-1]
		d.partFree = d.partFree[:n-1]
		return p
	}
	return &reqPart{} //kite:alloc-ok freelist growth; steady state recycles parts
}

func (d *Device) putPart(p *reqPart) {
	p.q = nil
	p.pages = p.pages[:0]
	p.indirect = p.indirect[:0]
	p.segs = p.segs[:0]
	p.indRefs = p.indRefs[:0]
	p.readDst = nil
	p.parent = nil
	d.partFree = append(d.partFree, p)
}

func (d *Device) getCaller() *callerOp {
	if n := len(d.callerFree); n > 0 {
		c := d.callerFree[n-1]
		d.callerFree = d.callerFree[:n-1]
		return c
	}
	return &callerOp{} //kite:alloc-ok freelist growth; steady state recycles ops
}

func (d *Device) putCaller(c *callerOp) {
	c.err = nil
	c.readBuf = nil
	c.buf = nil
	c.doneRead = nil
	c.doneErr = nil
	d.callerFree = append(d.callerFree, c)
}

// ReadSectors reads n bytes (sector-aligned) starting at sector. The data
// slice passed to cb is backed by a pooled buffer and is valid only during
// the callback; copy it (or use ReadSectorsInto) to keep it.
func (d *Device) ReadSectors(sector int64, n int, cb func(data []byte, err error)) {
	if err := d.validate(sector, n); err != nil {
		d.eng.After(0, func() { cb(nil, err) })
		return
	}
	d.stats.Reads++
	d.stats.ReadBytes += uint64(n)
	op := d.getCaller()
	op.buf = d.readBufs.Get(n)
	op.readBuf = op.buf.Bytes()
	op.doneRead = cb
	d.split(blkif.OpRead, sector, nil, op)
}

// ReadSectorsInto reads n=len(dst) bytes (sector-aligned) starting at
// sector directly into dst, avoiding the pooled intermediate entirely.
//
//kite:hotpath
func (d *Device) ReadSectorsInto(sector int64, dst []byte, cb func(err error)) {
	if err := d.validate(sector, len(dst)); err != nil {
		d.eng.After(0, func() { cb(err) }) //kite:alloc-ok validation-error path
		return
	}
	d.stats.Reads++
	d.stats.ReadBytes += uint64(len(dst))
	op := d.getCaller()
	op.readBuf = dst
	op.doneErr = cb
	d.split(blkif.OpRead, sector, nil, op)
}

// WriteSectors writes sector-aligned data at sector. data must stay valid
// until cb fires.
//
//kite:hotpath
func (d *Device) WriteSectors(sector int64, data []byte, cb func(err error)) {
	if err := d.validate(sector, len(data)); err != nil {
		d.eng.After(0, func() { cb(err) }) //kite:alloc-ok validation-error path
		return
	}
	d.stats.Writes++
	d.stats.WriteBytes += uint64(len(data))
	op := d.getCaller()
	op.doneErr = cb
	d.split(blkif.OpWrite, sector, data, op)
}

// Flush issues a cache-flush barrier on queue 0 (the device flush drains
// every hardware queue, so one barrier request suffices — blk-mq flushes
// through a single hctx the same way).
func (d *Device) Flush(cb func(err error)) {
	d.stats.Flushes++
	op := d.getCaller()
	op.remaining = 1
	op.doneErr = cb
	d.queues[0].submitOrQueue(pendingOp{flush: true, caller: op})
}

func (d *Device) validate(sector int64, n int) error {
	if !d.ready {
		return fmt.Errorf("blkfront: device %d not connected", d.devid)
	}
	if n%blkif.SectorSize != 0 || n <= 0 {
		return fmt.Errorf("blkfront: unaligned or empty i/o (%d bytes)", n)
	}
	if sector < 0 || sector+int64(n/blkif.SectorSize) > d.sectors {
		return fmt.Errorf("blkfront: i/o beyond device (sector %d + %d bytes)", sector, n)
	}
	return nil
}

// chunkBytes returns how many bytes the request starting at byte offset
// off into the op may carry: capped by the negotiated per-request limit
// and (multi-queue) by the distance to the next stripe boundary, so every
// request sits entirely within one queue's stripe.
func (d *Device) chunkBytes(sector int64, off, n, maxB int) int {
	size := n - off
	if size > maxB {
		size = maxB
	}
	if len(d.queues) > 1 {
		cur := sector + int64(off/blkif.SectorSize)
		boundary := (cur/stripeSectors + 1) * stripeSectors
		if room := int(boundary-cur) * blkif.SectorSize; size > room {
			size = room
		}
	}
	return size
}

// split chops a caller op into ring requests within the negotiated limits
// and steers each at its stripe's queue.
func (d *Device) split(op blkif.Op, sector int64, data []byte, caller *callerOp) {
	maxB := d.maxBytesPerRequest()
	n := len(data)
	if op == blkif.OpRead {
		n = len(caller.readBuf)
	}
	// Count the chunks first: completions are asynchronous (event-driven),
	// so remaining is stable for the duration of the submission loop.
	count := 0
	for off := 0; off < n; off += d.chunkBytes(sector, off, n, maxB) {
		count++
	}
	caller.remaining = count
	for off := 0; off < n; {
		size := d.chunkBytes(sector, off, n, maxB)
		start := sector + int64(off/blkif.SectorSize)
		p := pendingOp{
			op:     op,
			sector: start,
			size:   size,
			caller: caller, readOff: off,
		}
		if op == blkif.OpWrite {
			p.writeData = data[off : off+size]
		}
		d.queueFor(start).submitOrQueue(p)
		off += size
	}
}

// submitOrQueue tries the submission now, or backlogs it until ring space
// frees up. Order is preserved per queue: nothing jumps a non-empty
// backlog.
func (q *queue) submitOrQueue(p pendingOp) {
	if q.pendHead == len(q.pending) && q.trySubmit(p) {
		return
	}
	q.d.stats.QueuedFull++
	q.pending = append(q.pending, p)
}

func (q *queue) trySubmit(p pendingOp) bool {
	if p.flush {
		return q.pushFlush(p.caller)
	}
	return q.pushRequest(p.op, p.sector, p.size, p.writeData, p.readOff, p.caller)
}

func (q *queue) pumpPending() {
	for q.pendHead < len(q.pending) && q.trySubmit(q.pending[q.pendHead]) {
		q.pending[q.pendHead] = pendingOp{} // drop slice references
		q.pendHead++
	}
	if q.pendHead == len(q.pending) {
		q.pending = q.pending[:0]
		q.pendHead = 0
	}
}

// pushRequest builds and pushes one ring request; false if the ring is
// full.
// allocID parks part in the shadow table and returns its request ID
// (slot+1; 0 never appears on the ring, so a zero response ID is noise).
func (d *Device) allocID(part *reqPart) uint64 {
	if n := len(d.freeIDs); n > 0 {
		id := d.freeIDs[n-1]
		d.freeIDs = d.freeIDs[:n-1]
		d.inflight[id-1] = part
		return id
	}
	d.inflight = append(d.inflight, part) //kite:alloc-ok shadow table grows to the in-flight high-water mark
	return uint64(len(d.inflight))
}

// takeInflight claims the in-flight part for a response ID and recycles
// the slot; nil for an ID the table does not know.
func (d *Device) takeInflight(id uint64) *reqPart {
	if id == 0 || id > uint64(len(d.inflight)) {
		return nil
	}
	part := d.inflight[id-1]
	if part != nil {
		d.inflight[id-1] = nil
		d.freeIDs = append(d.freeIDs, id) //kite:alloc-ok free list grows to the in-flight high-water mark
	}
	return part
}

func (q *queue) pushRequest(op blkif.Op, sector int64, size int, writeData []byte, readOff int, caller *callerOp) bool {
	d := q.d
	nsegs := (size + mem.PageSize - 1) / mem.PageSize
	indirect := nsegs > blkif.MaxSegsDirect
	if q.ring.Full() {
		return false
	}
	part := d.getPart()
	part.op, part.parent, part.q = op, caller, q
	id := d.allocID(part)

	for i := 0; i < nsegs; i++ {
		segBytes := size - i*mem.PageSize
		if segBytes > mem.PageSize {
			segBytes = mem.PageSize
		}
		pp := q.getPage()
		part.pages = append(part.pages, pp)
		if op == blkif.OpWrite {
			pp.page.CopyInto(0, writeData[i*mem.PageSize:i*mem.PageSize+segBytes])
		}
		part.segs = append(part.segs, blkif.Segment{
			Ref:       pp.ref,
			FirstSect: 0,
			LastSect:  segBytes/blkif.SectorSize - 1,
		})
	}
	if op == blkif.OpRead {
		part.readDst = caller.readBuf[readOff : readOff+size]
	}

	req := blkif.Request{ID: id, Op: op, Sector: sector}
	cost := d.costs.PerRequest
	if op == blkif.OpWrite && d.persistent {
		cost += sim.Time(size) * d.costs.PerKBCopy / 1024
	}
	if indirect {
		// Write descriptors into granted indirect pages.
		npages := (nsegs + blkif.SegsPerIndirectPage - 1) / blkif.SegsPerIndirectPage
		req.Op = blkif.OpIndirect
		req.Imm = op
		req.IndirectSegs = nsegs
		d.stats.IndirectRequests++
		for pi := 0; pi < npages; pi++ {
			ip := q.getPage()
			part.indirect = append(part.indirect, ip)
			for si := pi * blkif.SegsPerIndirectPage; si < nsegs && si < (pi+1)*blkif.SegsPerIndirectPage; si++ {
				blkif.PutSegment(ip.page, si%blkif.SegsPerIndirectPage, part.segs[si])
			}
			part.indRefs = append(part.indRefs, ip.ref)
		}
		req.IndirectRefs = part.indRefs
	} else {
		req.Segs = part.segs
	}

	d.dom.CPUs.Charge(cost)
	d.stats.RingRequests++
	if !q.ring.PushRequest(req) {
		panic("blkfront: ring full despite check")
	}
	if q.ring.PushRequestsAndCheckNotify() {
		d.dom.Notify(q.port)
	}
	return true
}

func (q *queue) pushFlush(caller *callerOp) bool {
	d := q.d
	if q.ring.Full() {
		return false
	}
	part := d.getPart()
	part.op, part.parent, part.q = blkif.OpFlush, caller, q
	id := d.allocID(part)
	q.ring.PushRequest(blkif.Request{ID: id, Op: blkif.OpFlush})
	d.stats.RingRequests++
	if q.ring.PushRequestsAndCheckNotify() {
		d.dom.Notify(q.port)
	}
	return true
}

// onEvent reaps this queue's completions.
//
//kite:hotpath
func (q *queue) onEvent() {
	d := q.d
	for {
		rsp, ok := q.ring.TakeResponse()
		if !ok {
			if q.ring.FinalCheckForResponses() {
				continue
			}
			break
		}
		part := d.takeInflight(rsp.ID)
		if part == nil {
			continue
		}
		d.completePart(part, rsp.Status)
	}
	q.pumpPending()
}

func (d *Device) completePart(part *reqPart, status int8) {
	caller := part.parent
	q := part.q
	if status != blkif.StatusOK {
		caller.err = fmt.Errorf("blkfront: backend reported error %d", status) //kite:alloc-ok backend-error path
	} else if part.op == blkif.OpRead {
		// Copy data out of the (persistent) pages into the caller buffer.
		copied := 0
		for _, pp := range part.pages {
			n := len(part.readDst) - copied
			if n > mem.PageSize {
				n = mem.PageSize
			}
			copy(part.readDst[copied:copied+n], pp.page.Data[:n])
			copied += n
		}
		d.dom.CPUs.Charge(sim.Time(copied) * d.costs.PerKBCopy / 1024)
	}
	for _, pp := range part.pages {
		q.putPage(pp)
	}
	for _, ip := range part.indirect {
		q.putPage(ip)
	}
	d.putPart(part)
	caller.remaining--
	if caller.remaining != 0 {
		return
	}
	// Deliver the completion, then recycle: a pooled read buffer is valid
	// only while the callback runs.
	if caller.doneRead != nil {
		caller.doneRead(caller.readBuf, caller.err)
	} else if caller.doneErr != nil {
		caller.doneErr(caller.err)
	}
	if caller.buf != nil {
		caller.buf.Release()
	}
	d.putCaller(caller)
}
