package lane

import (
	"testing"

	"kite/internal/sim"
	"kite/internal/xen"
)

// fakeMember is a backlog of unit-cost work items. Drain serves whole
// items while they fit the budget, owes one flush per drain that served
// anything, and runs an optional hook first (to tear members out of the
// lane mid-round).
type fakeMember struct {
	t       *testing.T
	l       *Lane[*fakeMember]
	name    string
	port    xen.Port
	slot    int32
	unit    int
	backlog int
	served  int
	drains  int
	flushes int
	onDrain func()
	log     *[]string
}

func (m *fakeMember) Drain(budget int) (used int, more bool) {
	if !m.l.InRound() {
		m.t.Errorf("%s: Drain outside a round", m.name)
	}
	m.drains++
	*m.log = append(*m.log, m.name)
	if m.onDrain != nil {
		m.onDrain()
	}
	for m.backlog > 0 && used+m.unit <= budget {
		m.backlog--
		m.served++
		used += m.unit
	}
	if used > 0 && m.slot >= 0 {
		m.l.Owe(m.slot)
	}
	return used, m.backlog > 0
}

func (m *fakeMember) Flush() {
	if m.l.InRound() {
		m.t.Errorf("%s: Flush while members still drain", m.name)
	}
	m.flushes++
}

type rig struct {
	t   *testing.T
	eng *sim.Engine
	dom *xen.Domain
	l   *Lane[*fakeMember]
	log []string
}

func newRig(t *testing.T, quantum int) *rig {
	eng := sim.NewEngine()
	hv := xen.New(eng)
	dom := hv.CreateDomain(xen.DomainConfig{Name: "drv", VCPUs: 1, MemBytes: 8 << 20, Privileged: true})
	r := &rig{t: t, eng: eng, dom: dom}
	r.l = New[*fakeMember](0, dom, eng, dom.CPUs.CPU(0), "test", sim.Microsecond, quantum)
	return r
}

// join adds a member with the given item cost and backlog.
func (r *rig) join(name string, unit, backlog int) *fakeMember {
	r.t.Helper()
	m := &fakeMember{t: r.t, l: r.l, name: name, unit: unit, backlog: backlog, log: &r.log}
	m.port = r.dom.AllocUnbound(r.dom.ID)
	s, err := r.l.Join(m, m.port)
	if err != nil {
		r.t.Fatal(err)
	}
	m.slot = s
	return m
}

func (r *rig) detach(m *fakeMember) {
	r.l.Detach(m.port, m.slot)
	m.slot = -1
}

// checkRing verifies the active ring's links against activeN and the
// members' own view of their membership.
func (r *rig) checkRing() {
	r.t.Helper()
	l := r.l
	n := 0
	if l.head >= 0 {
		s := l.head
		for {
			m := &l.members[s]
			if l.members[m.next].prev != s || l.members[m.prev].next != s {
				r.t.Fatalf("ring links broken at slot %d", s)
			}
			n++
			if n > len(l.members) {
				r.t.Fatal("active ring does not close")
			}
			if s = m.next; s == l.head {
				break
			}
		}
	}
	if n != l.activeN {
		r.t.Fatalf("active ring holds %d members, activeN says %d", n, l.activeN)
	}
}

// TestDRRShareUnderBackloggedMember gives one member 10x the backlog of
// three others: while they are backlogged every member is served exactly
// one quantum per round, so the adversary has been served no more than
// any well-behaved member when the last of them finishes, and each served
// member is flushed exactly once per round.
func TestDRRShareUnderBackloggedMember(t *testing.T) {
	const quantum, items = 8, 40
	r := newRig(t, quantum)
	hog := r.join("hog", 1, 10*items)
	quiet := []*fakeMember{r.join("q1", 1, items), r.join("q2", 1, items), r.join("q3", 1, items)}
	for _, m := range append([]*fakeMember{hog}, quiet...) {
		r.l.Activate(m.slot)
	}

	for r.eng.Step() {
		done := true
		for _, m := range quiet {
			done = done && m.backlog == 0
		}
		if done {
			break
		}
	}
	for _, m := range quiet {
		if hog.served > m.served {
			t.Errorf("hog served %d items by the time %s finished %d", hog.served, m.name, m.served)
		}
	}
	wantRounds := uint64(items / quantum)
	if got := r.l.Rounds(); got != wantRounds {
		t.Errorf("quiet members finished after %d rounds, want %d", got, wantRounds)
	}
	r.eng.Run()
	if hog.backlog != 0 || hog.served != 10*items {
		t.Fatalf("hog served %d of %d", hog.served, 10*items)
	}
	if got := r.l.Rounds(); got != uint64(10*items/quantum) {
		t.Errorf("%d rounds in total, want %d", got, 10*items/quantum)
	}
	for _, m := range append([]*fakeMember{hog}, quiet...) {
		if m.flushes != m.drains {
			t.Errorf("%s: %d flushes for %d serving drains", m.name, m.flushes, m.drains)
		}
	}
	if r.l.activeN != 0 || r.l.head != -1 {
		t.Fatalf("drained lane still has %d active members", r.l.activeN)
	}
}

// TestDRRDeficitCarriesOver serves items costing 1.5 quanta: a member
// earns a quantum per round and spends it only when a whole item fits, so
// it is served every other round and never drained past its deficit.
func TestDRRDeficitCarriesOver(t *testing.T) {
	const quantum = 10
	r := newRig(t, quantum)
	big := r.join("big", 15, 4)
	r.l.Activate(big.slot)
	r.eng.Run()
	if big.served != 4 {
		t.Fatalf("served %d of 4", big.served)
	}
	// Items are paid at rounds 2, 3, 5, 6: deficit 20-15=5, 15-15=0,
	// 10+10-15=5, 15-15=0.
	if got := r.l.Rounds(); got != 6 {
		t.Errorf("%d rounds, want 6", got)
	}
	if r.l.members[big.slot].deficit != 0 {
		t.Errorf("drained member kept deficit %d", r.l.members[big.slot].deficit)
	}
}

// TestDetachLinkedMemberMidRound tears members out of the lane while a
// round is in progress: one member detaches the next linked member before
// its turn, and another detaches itself during its own drain. Neither is
// drained afterwards, the round finishes over the survivors, and the
// active ring stays consistent.
func TestDetachLinkedMemberMidRound(t *testing.T) {
	const quantum = 4
	r := newRig(t, quantum)
	a := r.join("a", 1, 100)
	b := r.join("b", 1, 100)
	c := r.join("c", 1, 100)
	d := r.join("d", 1, 100)
	for _, m := range []*fakeMember{a, b, c, d} {
		r.l.Activate(m.slot)
	}
	a.onDrain = func() {
		a.onDrain = nil
		r.detach(b) // b is linked and has not had its turn yet
	}
	c.onDrain = func() {
		c.onDrain = nil
		r.detach(c) // c leaves during its own drain
	}
	for r.l.Rounds() < 1 && r.eng.Step() {
	}
	if got := len(r.log); got != 3 || r.log[0] != "a" || r.log[1] != "c" || r.log[2] != "d" {
		t.Fatalf("first round drained %v, want [a c d]", r.log)
	}
	r.checkRing()
	if r.l.activeN != 2 {
		t.Fatalf("%d active after the round, want a and d", r.l.activeN)
	}
	if got := r.l.Members(); got != 2 {
		t.Fatalf("demux holds %d members, want 2", got)
	}
	bDrains, cDrains := b.drains, c.drains
	r.eng.Run()
	if b.drains != bDrains || c.drains != cDrains {
		t.Fatalf("detached members drained again: b %d->%d, c %d->%d", bDrains, b.drains, cDrains, c.drains)
	}
	if a.backlog != 0 || d.backlog != 0 {
		t.Fatalf("survivors left backlog: a %d, d %d", a.backlog, d.backlog)
	}
	r.checkRing()
}

// TestSlotRecycling checks detached slots return to the free list and are
// reused (most recently freed first) instead of growing the slab, and that
// a recycled slot carries no state from its previous member.
func TestSlotRecycling(t *testing.T) {
	r := newRig(t, 4)
	a := r.join("a", 1, 0)
	b := r.join("b", 1, 10)
	c := r.join("c", 1, 0)
	r.l.Activate(b.slot)
	r.l.Owe(b.slot)
	bSlot := b.slot
	r.detach(b)
	r.checkRing()
	if r.l.activeN != 0 {
		t.Fatalf("detached member still active")
	}
	e := r.join("e", 1, 0)
	if e.slot != bSlot {
		t.Fatalf("new member took slot %d, want recycled slot %d", e.slot, bSlot)
	}
	if m := r.l.members[e.slot]; m.deficit != 0 || m.owed || m.next != -1 {
		t.Fatalf("recycled slot carries state: %+v", m)
	}
	aSlot, cSlot := a.slot, c.slot
	r.detach(a)
	r.detach(c)
	f, g := r.join("f", 1, 0), r.join("g", 1, 0)
	if f.slot != cSlot || g.slot != aSlot {
		t.Fatalf("slots %d,%d reused as %d,%d, want LIFO %d,%d", aSlot, cSlot, f.slot, g.slot, cSlot, aSlot)
	}
	if len(r.l.members) != 3 {
		t.Fatalf("slab grew to %d across churn, want 3", len(r.l.members))
	}
	if got := r.l.Members(); got != 3 {
		t.Fatalf("demux holds %d members, want 3", got)
	}
	// Detaching an already-detached member only leaves the demux.
	r.detach(e)
	r.l.Detach(e.port, -1)
	if len(r.l.freeSlots) != 1 {
		t.Fatalf("double detach pushed slot twice: free list %v", r.l.freeSlots)
	}
	r.eng.Run()
	if f.drains+g.drains != 0 {
		t.Fatal("idle members were drained")
	}
}
