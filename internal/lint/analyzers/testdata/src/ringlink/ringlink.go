// Package ringlink exercises the kitelint ring-discipline analyzer: an
// intrusive ring over a slot slab, with the operations declared through
// //kite:ringlink directives exactly the way the lane slabs and the
// timewheel declare theirs.
package ringlink

// ring is a miniature lane slab: slot-indexed next/prev links threaded
// into a circular active ring, plus a freelist.
type ring struct {
	head       int32
	next, prev []int32
	free       int32
}

// alloc takes a slot off the freelist; the caller owes it a link or a put.
//
//kite:ringlink alloc
func (r *ring) alloc() int32 {
	s := r.free
	r.free = r.next[s]
	return s
}

// link inserts slot s into the active ring.
//
//kite:ringlink link
func (r *ring) link(s int32) {
	r.next[s] = r.head
	r.head = s
}

// unlink removes slot s from the active ring.
//
//kite:ringlink unlink
func (r *ring) unlink(s int32) {
	r.next[s] = -1
}

// put returns slot s to the freelist.
//
//kite:ringlink free
func (r *ring) put(s int32) {
	r.next[s] = r.free
	r.free = s
}

// doubleUnlink removes the same slot twice: the second unlink rewires the
// neighbors of whatever ring the slot's stale links still point at.
func doubleUnlink(r *ring, s int32) {
	r.unlink(s)
	r.unlink(s) // want `double-unlink`
}

// conditionalDoubleLink links a slot that one path has already linked.
func conditionalDoubleLink(r *ring, s int32, busy bool) {
	r.link(s)
	if busy {
		r.link(s) // want `double-link`
	}
}

// leakySlot allocates a slot and, on the early-return path, neither links
// nor frees it: the slot leaks off both the ring and the freelist.
func leakySlot(r *ring, skip bool) {
	s := r.alloc() // want `leaked link`
	if skip {
		return
	}
	r.link(s)
}

// useAfterPut touches a slot after returning it to the freelist.
func useAfterPut(r *ring, s int32) {
	r.put(s)
	r.link(s) // want `use-after-detach`
}

// freeWhileLinked returns a still-linked slot to the freelist, leaving the
// ring pointing into free space.
func freeWhileLinked(r *ring, s int32) {
	r.link(s)
	r.put(s) // want `may still be linked`
}

// guardedDetach is the sanctioned lane-detach shape: unlink only when the
// membership test says linked, then recycle. Clean.
func guardedDetach(r *ring, s int32) {
	if r.next[s] >= 0 {
		r.unlink(s)
	}
	r.put(s)
}

// allocLink is the sanctioned timewheel-Add shape. Clean.
func allocLink(r *ring) int32 {
	s := r.alloc()
	r.link(s)
	return s
}

// allocHandoff returns the fresh slot: the link obligation moves to the
// caller. Clean.
func allocHandoff(r *ring) int32 {
	return retag(r)
}

func retag(r *ring) int32 {
	s := r.alloc()
	return s
}

// loopReuse re-links a different slot each iteration; reassignment ends
// tracking, so no double-link. Clean.
func loopReuse(r *ring, slots []int32) {
	for i := 0; i < len(slots); i++ {
		s := slots[i]
		r.unlink(s)
		r.put(s)
	}
}

// rangeUnlink unlinks each ranged slot once: every iteration rebinds s, so
// the previous element's unlinked state does not carry over. Clean.
func rangeUnlink(r *ring, slots []int32) {
	for _, s := range slots {
		if r.next[s] < 0 {
			continue
		}
		r.unlink(s)
	}
}

// rangeDoubleUnlink unlinks the same ranged slot twice in one iteration.
func rangeDoubleUnlink(r *ring, slots []int32) {
	for _, s := range slots {
		r.unlink(s)
		r.unlink(s) // want `double-unlink`
	}
}

// lane is a generic slab ring, the shape of the fleet's DRR lanes.
type lane[M any] struct {
	members []M
	next    []int32
}

// link inserts slot s.
//
//kite:ringlink link
func (l *lane[M]) link(s int32) { l.next[s] = s }

// unlink removes slot s.
//
//kite:ringlink unlink
func (l *lane[M]) unlink(s int32) { l.next[s] = -1 }

// genericDoubleUnlink calls the generic type's operations from its own
// method: the instantiated callees resolve to their declarations.
func (l *lane[M]) genericDoubleUnlink(s int32) {
	l.unlink(s)
	l.unlink(s) // want `double-unlink`
}

// instantiatedDoubleLink calls them through an instantiation.
func instantiatedDoubleLink(l *lane[int], s int32) {
	l.link(s)
	l.link(s) // want `double-link`
}
