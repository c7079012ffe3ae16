package shardtab

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"kite/internal/sim"
)

// testKey packs a uint32 into the Toeplitz window.
type testKey uint32

func (k testKey) Pack() [12]byte {
	var in [12]byte
	binary.BigEndian.PutUint32(in[0:4], uint32(k))
	return in
}

type testTable = Table[testKey, int]

// remove deletes k's entry by key and reports whether it existed — the
// test's direct handle on removeAt, which production reaches through
// aging and RemoveWhere.
func (t *Table[K, V]) remove(k K) bool {
	h := t.hashOf(k)
	s := &t.shards[h>>(32-shardBits)]
	i, ok := s.find(k, h)
	if ok {
		t.removeAt(s, i)
	}
	return ok
}

// model is the reference: a Go map of key -> (value, last activity).
type model map[testKey]struct {
	val  int
	last sim.Time
}

// checkInvariants verifies every shard's index against its slab: live
// counts agree, every index reference is reachable from its home slot
// without crossing an empty slot (the backward-shift invariant), and the
// free-list holds exactly the slab entries the index does not.
func checkInvariants(t *testing.T, tab *testTable) {
	t.Helper()
	total := 0
	for si := range tab.shards {
		s := &tab.shards[si]
		live := 0
		inIndex := make(map[int32]bool)
		mask := uint32(len(s.index) - 1)
		for i, ref := range s.index {
			if ref == 0 {
				continue
			}
			live++
			inIndex[ref-1] = true
			e := &s.slab[ref-1]
			if !e.used {
				t.Fatalf("shard %d slot %d references a free entry", si, i)
			}
			if int(e.hash>>(32-shardBits)) != si {
				t.Fatalf("shard %d holds a key of shard %d", si, e.hash>>(32-shardBits))
			}
			for j := e.hash & mask; j != uint32(i); j = (j + 1) & mask {
				if s.index[j] == 0 {
					t.Fatalf("shard %d: entry at slot %d unreachable from home %d", si, i, e.hash&mask)
				}
			}
		}
		if live != s.count {
			t.Fatalf("shard %d: index holds %d, count says %d", si, live, s.count)
		}
		free := 0
		for f := s.freeHead; f != 0; f = s.slab[f-1].next {
			if inIndex[f-1] || s.slab[f-1].used {
				t.Fatalf("shard %d: live entry %d on the free-list", si, f-1)
			}
			free++
		}
		if live+free != len(s.slab) {
			t.Fatalf("shard %d: %d live + %d free != slab %d", si, live, free, len(s.slab))
		}
		total += live
	}
	if total != tab.Len() {
		t.Fatalf("shards hold %d, Len says %d", total, tab.Len())
	}
}

// TestDifferentialAgainstMap drives a table and a map model through a
// seeded random mix of inserts, lookups (refreshing last activity),
// removals, predicate removals and aging passes over a key space large
// enough to grow every shard several times, checking every result and the
// structural invariants along the way.
func TestDifferentialAgainstMap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var tab testTable
		tab.Init(0x5EED_0000_0000_0000 | uint64(seed))
		ref := model{}
		now := sim.Time(0)
		const keySpace = 4000
		for op := 0; op < 60000; op++ {
			now += sim.Time(rng.Intn(int(sim.Millisecond)))
			k := testKey(rng.Intn(keySpace))
			switch p := rng.Intn(100); {
			case p < 45:
				e := tab.Lookup(k)
				m, ok := ref[k]
				if (e != nil) != ok {
					t.Fatalf("seed %d op %d: Lookup(%d) present=%v, model %v", seed, op, k, e != nil, ok)
				}
				if e == nil {
					e, r := tab.Insert(k, now)
					e.Val = op
					if got := tab.Get(r); got != e || got.Key != k {
						t.Fatalf("seed %d op %d: Get(Insert ref) mismatch", seed, op)
					}
					ref[k] = struct {
						val  int
						last sim.Time
					}{op, now}
					continue
				}
				if e.Key != k || e.Val != m.val || e.Last != m.last {
					t.Fatalf("seed %d op %d: entry %+v, model %+v", seed, op, *e, m)
				}
				e.Last = now
				m.last = now
				ref[k] = m
			case p < 70:
				_, ok := ref[k]
				if got := tab.remove(k); got != ok {
					t.Fatalf("seed %d op %d: remove(%d)=%v, model %v", seed, op, k, got, ok)
				}
				delete(ref, k)
			case p < 72:
				mod := testKey(rng.Intn(7) + 2)
				want := 0
				for mk := range ref {
					if mk%mod == 0 {
						delete(ref, mk)
						want++
					}
				}
				offered := make(map[testKey]int)
				got := tab.RemoveWhere(func(e *Entry[testKey, int]) bool {
					offered[e.Key]++
					return e.Key%mod == 0
				})
				if got != want {
					t.Fatalf("seed %d op %d: RemoveWhere removed %d, model %d", seed, op, got, want)
				}
				for mk, n := range offered {
					if mk%mod == 0 && n != 1 {
						t.Fatalf("seed %d op %d: matching key %d offered %d times", seed, op, mk, n)
					}
				}
			case p < 75:
				maxIdle := 2*sim.Second + sim.Time(rng.Intn(int(20*sim.Second)))
				var want []int
				for mk, m := range ref {
					if now-m.last > maxIdle {
						want = append(want, int(mk))
						delete(ref, mk)
					}
				}
				var got []int
				n := tab.Age(now, maxIdle, func(e *Entry[testKey, int]) {
					got = append(got, int(e.Key))
				})
				sort.Ints(want)
				sort.Ints(got)
				if n != len(want) || len(got) != len(want) {
					t.Fatalf("seed %d op %d: Age evicted %d (%d reported), model %d", seed, op, n, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: Age evicted %v, model %v", seed, op, got, want)
					}
				}
			default:
				if tab.Len() != len(ref) {
					t.Fatalf("seed %d op %d: Len %d, model %d", seed, op, tab.Len(), len(ref))
				}
			}
			if op%997 == 0 {
				checkInvariants(t, &tab)
			}
		}
		checkInvariants(t, &tab)
		for si := range tab.shards {
			if n := len(tab.shards[si].index); n <= minSlots {
				t.Errorf("seed %d: shard %d never grew (index %d)", seed, si, n)
			}
		}
	}
}

// TestBackwardShiftWrapsIndexEnd builds probe runs that start in the last
// index slots of one shard and wrap past the end, then deletes from their
// head: the shifted entries must move back across the wrap and every
// survivor must stay reachable.
func TestBackwardShiftWrapsIndexEnd(t *testing.T) {
	var tab testTable
	tab.Init(0xB5)
	// Collect keys of shard 0 whose home is one of the last two slots of
	// the initial 64-slot index.
	var keys []testKey
	for k := testKey(0); len(keys) < 6; k++ {
		h := tab.hashOf(k)
		if h>>(32-shardBits) == 0 && h&(minSlots-1) >= minSlots-2 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		tab.Insert(k, 0)
	}
	s := &tab.shards[0]
	if len(s.index) != minSlots || s.index[0] == 0 || s.index[1] == 0 {
		t.Fatalf("probe run did not wrap past the index end (index %d)", len(s.index))
	}
	for i, k := range keys {
		if !tab.remove(k) {
			t.Fatalf("remove(%d) missed", k)
		}
		checkInvariants(t, &tab)
		for _, rest := range keys[i+1:] {
			if tab.Lookup(rest) == nil {
				t.Fatalf("after removing %d, %d is unreachable", k, rest)
			}
		}
	}
	if tab.Len() != 0 || s.index[0] != 0 || s.index[1] != 0 {
		t.Fatalf("table not empty after removing every key")
	}
}

// TestAgingReapsOrphans removes and re-inserts keys so their first wheel
// nodes are orphaned (deleted entry, then a recycled slab slot): aging
// must reap those nodes without evicting the live entries that now own
// the slots, and evict them once they are idle in turn.
func TestAgingReapsOrphans(t *testing.T) {
	var tab testTable
	tab.Init(0x0A)
	for k := testKey(0); k < 100; k++ {
		tab.Insert(k, 0)
	}
	for k := testKey(0); k < 100; k += 2 {
		tab.remove(k)
	}
	// Reuse the freed slab slots with fresh keys active later.
	for k := testKey(1000); k < 1050; k++ {
		tab.Insert(k, 50*sim.Second)
	}
	if n := tab.Age(60*sim.Second, 30*sim.Second, nil); n != 50 {
		t.Fatalf("aged %d, want the 50 idle odd keys", n)
	}
	if tab.Len() != 50 || tab.Lookup(1000) == nil || tab.Lookup(1) != nil {
		t.Fatalf("wrong survivors: len %d", tab.Len())
	}
	if n := tab.Age(200*sim.Second, 30*sim.Second, nil); n != 50 {
		t.Fatalf("aged %d, want the 50 recycled-slot keys", n)
	}
	if tab.Len() != 0 || tab.wheel.Len() != 0 {
		t.Fatalf("len %d, wheel nodes %d after aging everything", tab.Len(), tab.wheel.Len())
	}
	if got := tab.Cap(); got >= 150 {
		t.Fatalf("slab capacity %d: no freed slot was recycled", got)
	}
}
