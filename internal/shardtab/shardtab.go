// Package shardtab is the sharded hash table behind the network driver
// domain's per-tenant state: the bridge forwarding database and the NAT
// flow table. A driver domain serving hundreds of guests needs O(1),
// allocation-free lookup on the data path at any table size. A Go map
// would do the same asymptotically, but its buckets allocate on growth
// mid-traffic, its iteration order is nondeterministic (poisonous for the
// byte-identical summaries), and a fleet's worth of entries would all
// contend on one structure.
//
// Instead a Table is a power-of-two array of shards, selected by the top
// bits of a Toeplitz hash over the key (netpkt.RSS — the hash family the
// data plane's steering already trusts). Each shard keeps its entries in a
// slab with an intrusive free-list — entries are reused in place, so a
// driver domain churning through tenant connect/disconnect cycles reaches
// a high-water mark and never allocates again — and an open-addressing
// index of slab positions, probed linearly on the low hash bits (so shard
// choice and slot choice are decorrelated), with backward-shift deletion
// so no tombstones accumulate. Slab positions are stable for an entry's
// lifetime, which lets callers keep flat arrays of packed references
// (Ref) instead of a second map.
//
// Entries age by last activity on one timewheel.Wheel: an insert queues
// one node, a refresh only stores the entry's Last field, and an aging
// pass probes only entries whose last activity has fallen behind the
// cutoff — plus nodes orphaned by deletion or slot reuse, reaped when
// their handle no longer matches the entry. Every walk (aging, RemoveWhere)
// is in a deterministic order.
package shardtab

import (
	"kite/internal/netpkt"
	"kite/internal/sim"
	"kite/internal/timewheel"
)

const (
	shardBits = 3
	shardCnt  = 1 << shardBits
	// minSlots is a shard's initial index capacity; power of two.
	minSlots = 64
	// wheelGran × wheelBuckets is the aging wheel's rotation; idle cutoffs
	// well inside one rotation probe each healthy entry at most once per
	// cutoff.
	wheelGran    = sim.Second
	wheelBuckets = 256
)

// Key is a table key: comparable, and packed by value into the 12-byte
// Toeplitz input window (returned, not written through a pointer, so the
// window stays on the caller's stack).
type Key interface {
	comparable
	Pack() [12]byte
}

// Entry is one record in a shard's slab. When free, next links the shard's
// free-list; when live, hash caches the key's Toeplitz hash for index
// maintenance and node is the entry's aging-wheel node.
type Entry[K Key, V any] struct {
	Key K
	Val V
	// Last is the entry's last activity; callers refresh it on use and
	// Age evicts by it.
	Last sim.Time
	hash uint32
	next int32 // free-list link: slab position + 1, 0 terminates
	used bool
	node timewheel.Handle
}

// Ref packs (shard, slab position) into a stable entry reference: shard in
// the top bits, slab position + 1 in the rest; zero means no entry.
type Ref int32

func packRef(shard int, idx int32) Ref { return Ref(int32(shard)<<24 | (idx + 1)) }

func (r Ref) unpack() (int, int32) { return int(r >> 24), int32(r&0xffffff) - 1 }

// shard is one slab plus open-addressing index. Index slots hold slab
// position + 1 (0 means empty); the load factor is capped at 3/4.
type shard[K Key, V any] struct {
	index    []int32
	slab     []Entry[K, V]
	freeHead int32 // slab position + 1; 0 means the free-list is empty
	count    int
}

// Table is a sharded table from K to V. The zero value is not usable; call
// Init first.
type Table[K Key, V any] struct {
	hash   netpkt.RSS
	shards [shardCnt]shard[K, V]
	count  int
	wheel  *timewheel.Wheel
}

// Init readies the table with its Toeplitz seed. The seed is fixed per
// table so every run spreads keys identically.
func (t *Table[K, V]) Init(seed uint64) {
	t.hash = netpkt.NewRSS(seed)
	t.wheel = timewheel.New(wheelGran, wheelBuckets)
}

// Len returns the number of live entries.
func (t *Table[K, V]) Len() int { return t.count }

// Cap returns the summed slab capacity across shards — the table's record
// footprint (its churn high-water mark), as opposed to its live count.
func (t *Table[K, V]) Cap() int {
	n := 0
	for i := range t.shards {
		n += len(t.shards[i].slab)
	}
	return n
}

// IndexCap returns the summed index capacity across shards — the slots
// that grow doubles, as opposed to the slab records Cap counts.
func (t *Table[K, V]) IndexCap() int {
	n := 0
	for i := range t.shards {
		n += len(t.shards[i].index)
	}
	return n
}

// hashOf pads k into the Toeplitz window and hashes it.
//
//kite:hotpath
func (t *Table[K, V]) hashOf(k K) uint32 {
	in := k.Pack()
	return t.hash.Hash12(&in)
}

// find returns the index slot holding k (hashed h), if present.
//
//kite:hotpath
func (s *shard[K, V]) find(k K, h uint32) (uint32, bool) {
	if len(s.index) == 0 {
		return 0, false
	}
	mask := uint32(len(s.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ref := s.index[i]
		if ref == 0 {
			return 0, false
		}
		if s.slab[ref-1].Key == k {
			return i, true
		}
	}
}

// Lookup returns k's live entry, or nil: one probe run in one shard, no
// allocation. The pointer is valid until the next Insert.
//
//kite:hotpath
func (t *Table[K, V]) Lookup(k K) *Entry[K, V] {
	h := t.hashOf(k)
	s := &t.shards[h>>(32-shardBits)]
	i, ok := s.find(k, h)
	if !ok {
		return nil
	}
	return &s.slab[s.index[i]-1]
}

// Get resolves a reference returned by Insert; nil for the zero Ref.
//
//kite:hotpath
func (t *Table[K, V]) Get(r Ref) *Entry[K, V] {
	if r == 0 {
		return nil
	}
	si, idx := r.unpack()
	return &t.shards[si].slab[idx]
}

// Insert claims an entry for k, which must not be present, last active at
// now, and returns it with its stable reference. The entry comes from the
// shard's free-list when one is available; otherwise the slab grows
// (amortized to the churn high-water mark), and a shard index past 3/4
// load doubles first.
//
//kite:hotpath
func (t *Table[K, V]) Insert(k K, now sim.Time) (*Entry[K, V], Ref) {
	h := t.hashOf(k)
	si := int(h >> (32 - shardBits))
	s := &t.shards[si]
	var idx int32
	if s.freeHead > 0 {
		idx = s.freeHead - 1
		s.freeHead = s.slab[idx].next
	} else {
		idx = int32(len(s.slab))
		s.slab = append(s.slab, Entry[K, V]{}) //kite:alloc-ok slab grows to the churn high-water mark, then the free-list recycles
	}
	ref := packRef(si, idx)
	e := &s.slab[idx]
	*e = Entry[K, V]{Key: k, Last: now, hash: h, used: true,
		node: t.wheel.Add(uint64(ref), now)}
	if len(s.index) == 0 || (s.count+1)*4 > len(s.index)*3 {
		s.grow()
	}
	mask := uint32(len(s.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s.index[i] == 0 {
			s.index[i] = idx + 1
			break
		}
	}
	s.count++
	t.count++
	return e, ref
}

// grow doubles the shard's index (or seeds it at minSlots) and reinserts
// every live reference by cached hash. Amortized over insertions; never on
// the pure-lookup path.
func (s *shard[K, V]) grow() {
	old := s.index
	n := 2 * len(old)
	if n < minSlots {
		n = minSlots
	}
	s.index = make([]int32, n) //kite:alloc-ok amortized shard-index doubling to the fleet high-water mark
	mask := uint32(n - 1)
	for _, ref := range old {
		if ref == 0 {
			continue
		}
		for j := s.slab[ref-1].hash & mask; ; j = (j + 1) & mask {
			if s.index[j] == 0 {
				s.index[j] = ref
				break
			}
		}
	}
}

// removeRef deletes the live entry r names.
func (t *Table[K, V]) removeRef(r Ref) {
	si, idx := r.unpack()
	s := &t.shards[si]
	mask := uint32(len(s.index) - 1)
	i := s.slab[idx].hash & mask
	for s.index[i] != idx+1 {
		i = (i + 1) & mask
	}
	t.removeAt(s, i)
}

// removeAt frees the entry at index slot i onto the shard's free-list
// (zeroed, so it pins nothing) and closes the index hole by backward shift:
// later entries of the probe run slide back over the hole, so lookup probe
// runs stay short forever. The entry's wheel node is orphaned; the next
// aging pass reaps it.
func (t *Table[K, V]) removeAt(s *shard[K, V], i uint32) {
	idx := s.index[i] - 1
	s.slab[idx] = Entry[K, V]{next: s.freeHead}
	s.freeHead = idx + 1
	s.count--
	t.count--
	mask := uint32(len(s.index) - 1)
	hole := i
	for {
		s.index[hole] = 0
		j := hole
		for {
			j = (j + 1) & mask
			ref := s.index[j]
			if ref == 0 {
				return
			}
			// The entry at j may move into the hole only if its home slot
			// is at or before the hole in cyclic probe order — otherwise
			// the move would strand it ahead of its home.
			home := s.slab[ref-1].hash & mask
			if (j-home)&mask >= (j-hole)&mask {
				s.index[hole] = ref
				hole = j
				break
			}
		}
	}
}

// RemoveWhere deletes every entry pred accepts and returns how many: shard
// by shard, index slot by slot (deterministic). pred may release what the
// entry holds before it goes. Rescanning a slot after a delete is safe
// because backward shift only moves entries to earlier probe positions:
// an unvisited entry shifted into the hole is visited there, and an entry
// already visited may be offered again only if pred rejected it.
func (t *Table[K, V]) RemoveWhere(pred func(*Entry[K, V]) bool) int {
	removed := 0
	for si := range t.shards {
		s := &t.shards[si]
		for i := uint32(0); int(i) < len(s.index); {
			if ref := s.index[i]; ref != 0 && pred(&s.slab[ref-1]) {
				t.removeAt(s, i)
				removed++
				continue // the shift may have refilled slot i
			}
			i++
		}
	}
	return removed
}

// Age evicts every entry idle longer than maxIdle, calling dead (if
// non-nil) on each just before it goes, and returns how many were evicted.
// The wheel pass probes only entries whose last activity has fallen behind
// the cutoff (plus orphaned nodes that came due), so a table of busy
// entries pays nothing here; the evicted set is exactly what a full sweep
// would drop, in deterministic wheel order.
func (t *Table[K, V]) Age(now, maxIdle sim.Time, dead func(*Entry[K, V])) int {
	evicted := 0
	t.wheel.Advance(now-maxIdle-1,
		func(h timewheel.Handle, key uint64) sim.Time {
			e := t.Get(Ref(key))
			if !e.used || e.node != h {
				return timewheel.Gone
			}
			return e.Last
		},
		func(key uint64) {
			if dead != nil {
				dead(t.Get(Ref(key)))
			}
			t.removeRef(Ref(key))
			evicted++
		})
	return evicted
}
