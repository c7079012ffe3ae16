// Package lane is the fleet-mode execution unit both PV backends share: one
// worker thread on one pinned vCPU serving the single-queue devices of many
// tenant guests. Per-device worker threads are right for a handful of
// guests and do not survive hundreds — the task count explodes, and a noisy
// guest's full rings keep its threads perpetually runnable, starving
// quieter tenants on the same vCPU. A Lane replaces them with one
// deficit-round-robin scheduler: every active member earns a quantum per
// round, a round drains each member against its accumulated deficit, a
// member with remaining backlog stays in the round, and a drained member
// leaves and forfeits its deficit (per DRR). A tenant offering 10x load
// therefore gets exactly its share per round and no more. netback's
// quantum is bytes, blkback's is requests; the lane does not care.
//
// Round state lives in a slot-indexed member slab — deficit, owed-flush
// flag, and the active-ring links packed per member — walked through an
// intrusive doubly-linked ring of backlogged members only: a doorbell
// re-links a member in O(1), teardown unlinks in O(1), and idle tenants
// are not in the ring and cost zero. Nothing in the hot path is
// O(members).
//
// Doorbells are batched through one xen.Demux group per lane: every member
// port joins it, and one scan per doorbell quantum serves the whole pending
// bitmap. Completion work a round produces is batched too: a member marks
// itself owed (Owe) instead of notifying inline, and the round flushes
// every owed member once at the end — at most one notification per member
// per round, issued back to back.
package lane

import (
	"fmt"

	"kite/internal/sim"
	"kite/internal/xen"
)

// Member is one tenant queue a lane serves.
type Member interface {
	// Drain serves the member's backlog against budget and reports how
	// much budget it used and whether backlog remains. more is true only
	// when the budget — not the work — ended the drain.
	Drain(budget int) (used int, more bool)
	// Flush publishes what the member was owed this round (see Owe). It
	// runs once per owed member, after every member has drained.
	Flush()
}

// A Lane is one DRR service worker over members of type M.
type Lane[M Member] struct {
	id      int
	quantum int
	demux   *xen.Demux
	worker  *sim.Task

	// members is the slot-indexed slab of per-member round state; slots are
	// assigned at Join and recycled through freeSlots at Detach.
	members   []slot[M]
	freeSlots []int32
	// head is the active ring: a circular doubly-linked list (slot indices)
	// of members with backlog, in activation order; -1 when empty.
	head    int32
	activeN int
	// served is the round's scratch list of visited slots, reused so the
	// end-of-round flush allocates nothing.
	served []int32
	// inRound is set while members drain; see InRound.
	inRound bool

	rounds uint64
}

// slot is one member's round state, packed in the lane slab.
type slot[M Member] struct {
	m       M
	deficit int
	// owed records a flush owed to the member at the end of the round.
	owed bool
	// next/prev are the active-ring links (slot indices); next == -1 means
	// the member is not backlogged and costs no round time.
	next, prev int32
}

// New creates lane id of dom: its worker, named <name>/lane<id>, runs on
// cpu on eng, its doorbells are demuxed on cpu at wake latency, and every
// active member earns quantum per round.
func New[M Member](id int, dom *xen.Domain, eng *sim.Engine, cpu *sim.CPU,
	name string, wake sim.Time, quantum int) *Lane[M] {

	l := &Lane[M]{id: id, quantum: quantum, head: -1}
	l.demux = dom.NewDemux(cpu, wake)
	l.worker = sim.NewTask(eng, cpu, fmt.Sprintf("%s/lane%d", name, id), wake, l.round)
	return l
}

// ID returns the lane index.
func (l *Lane[M]) ID() int { return l.id }

// Members returns how many member ports have joined the lane's demux.
func (l *Lane[M]) Members() int { return l.demux.Members() }

// Rounds returns how many DRR rounds the worker has executed.
func (l *Lane[M]) Rounds() uint64 { return l.rounds }

// DemuxStats reports the lane's doorbell batching: scans executed and
// member doorbells absorbed into them.
func (l *Lane[M]) DemuxStats() (scans, marks uint64) { return l.demux.Stats() }

// InRound reports whether members are draining right now: work a member
// completes synchronously may then defer its notification to the round's
// flush (Owe) instead of arming its own.
func (l *Lane[M]) InRound() bool { return l.inRound }

// Join adds m, whose doorbell is port, to the lane: the port joins the
// demux group and m takes a slab slot (recycling a departed member's),
// whose index it returns.
func (l *Lane[M]) Join(m M, port xen.Port) (int32, error) {
	if err := l.demux.Join(port); err != nil {
		return -1, err
	}
	var s int32
	if n := len(l.freeSlots); n > 0 {
		s = l.freeSlots[n-1]
		l.freeSlots = l.freeSlots[:n-1]
	} else {
		s = int32(len(l.members))
		l.members = append(l.members, slot[M]{})
	}
	l.members[s] = slot[M]{m: m, next: -1, prev: -1}
	return s, nil
}

// Detach removes a departing member: its port leaves the demux group, any
// spot in the current round is forfeited in O(1), and slot s returns to
// the free list. It runs at device shutdown, before the port closes — a
// churning fleet must not pin one dead member slot per departure. s < 0
// (already detached) only leaves the demux.
func (l *Lane[M]) Detach(port xen.Port, s int32) {
	l.demux.Leave(port)
	if s < 0 {
		return
	}
	if l.members[s].next >= 0 {
		l.unlink(s)
	}
	l.members[s] = slot[M]{next: -1, prev: -1}
	l.freeSlots = append(l.freeSlots, s)
}

// Activate links slot s into the DRR round (if not already there) in O(1)
// and wakes the worker.
//
//kite:hotpath
func (l *Lane[M]) Activate(s int32) {
	if l.members[s].next < 0 {
		l.link(s)
	}
	l.worker.Wake()
}

// Owe marks slot s as owed a Flush at the end of the round that serves it.
//
//kite:hotpath
func (l *Lane[M]) Owe(s int32) { l.members[s].owed = true }

// link appends slot s to the active ring's tail (activation order).
//
//kite:hotpath
//kite:ringlink link
func (l *Lane[M]) link(s int32) {
	m := &l.members[s]
	if l.head < 0 {
		m.next, m.prev = s, s
		l.head = s
	} else {
		tail := l.members[l.head].prev
		m.prev, m.next = tail, l.head
		l.members[tail].next = s
		l.members[l.head].prev = s
	}
	l.activeN++
}

// unlink removes slot s from the active ring in O(1).
//
//kite:hotpath
//kite:ringlink unlink
func (l *Lane[M]) unlink(s int32) {
	m := &l.members[s]
	if m.next == s {
		l.head = -1
	} else {
		l.members[m.prev].next = m.next
		l.members[m.next].prev = m.prev
		if l.head == s {
			l.head = m.next
		}
	}
	m.next, m.prev = -1, -1
	l.activeN--
}

// round is the worker body: one deficit-round-robin pass over the members
// backlogged when it starts, in activation order. Each earns a quantum and
// drains against its accumulated deficit; it stays linked only if budget —
// not work — ran out. A member detached mid-round is skipped. The pass
// touches exactly the backlogged members, then flushes each owed one once.
// Another round is scheduled while anyone still has backlog.
//
//kite:hotpath
func (l *Lane[M]) round() {
	n := l.activeN
	if n == 0 {
		return
	}
	l.rounds++
	served := l.served[:0]
	for i, s := 0, l.head; i < n; i++ {
		served = append(served, s) //kite:alloc-ok scratch grows to the round high-water mark
		s = l.members[s].next
	}
	l.inRound = true
	for _, s := range served {
		m := &l.members[s]
		if m.next < 0 {
			continue // detached by an earlier member's drain
		}
		m.deficit += l.quantum
		used, more := m.m.Drain(m.deficit)
		if m.next < 0 {
			continue // detached during its own drain
		}
		m.deficit -= used
		if !more {
			// Drained: leave the round and forfeit the unused deficit, so
			// idle tenants cannot bank credit against future backlogs.
			l.unlink(s)
			m.deficit = 0
		}
	}
	l.inRound = false
	for _, s := range served {
		if m := &l.members[s]; m.owed {
			m.owed = false
			m.m.Flush()
		}
	}
	l.served = served[:0]
	if l.activeN > 0 {
		l.worker.Wake()
	}
}
