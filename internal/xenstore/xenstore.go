// Package xenstore implements the xenstored database: a small hierarchical
// key-value store with watches and transactions, shared between domains.
// The paper's backend-invocation design (§4.1) hangs entirely off this
// component — backends set watches on their driver-domain paths and a
// dedicated thread pairs up frontends when the watch fires.
//
// Watches fire asynchronously (scheduled on the simulation engine) exactly
// once per mutation per registered watch, plus the initial registration
// fire xenstored performs. Transactions provide optimistic concurrency:
// commit fails if any path the transaction touched changed underneath it.
package xenstore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"kite/internal/sim"
)

// DomID mirrors xen.DomID without importing it (xenstore is lower-level).
type DomID uint16

type node struct {
	children map[string]*node // nil until the first child is added
	names    []string         // sorted child names; nil when stale
	value    string
	hasValue bool
	version  uint64
	owner    DomID
	hasPerms bool           // SetPerms was called on this node
	readers  map[DomID]bool // nil means world-readable
}

// Watch is a registered watch; the callback receives the path that changed
// and the token supplied at registration.
type Watch struct {
	path    string
	token   string
	fn      func(path, token string)
	store   *Store
	seq     uint64     // registration order; matches fire in seq order
	at      *watchNode // index node holding the watch; nil once unwatched
	dead    bool
	pending int
	fires   uint64
}

// watchNode is one path component of the watch index: a trie over path
// components whose nodes hold the watches registered at exactly that path.
// Nodes with no watches at or below them are pruned on Unwatch.
type watchNode struct {
	parent   *watchNode
	name     string
	children map[string]*watchNode
	watches  []*Watch // in registration order
}

// Store is the xenstored database.
type Store struct {
	eng     *sim.Engine
	root    *node
	version uint64

	// Watch index. A mutation of path p fires every watch registered at
	// p, at an ancestor of p, or at a descendant of p (§4.1's watch
	// semantics), in registration order. matched is fireWatches' reusable
	// scratch list.
	watchRoot *watchNode
	watchSeq  uint64
	watches   int
	matched   []*Watch

	// OpLatency models the round trip to the xenstored daemon in Dom0.
	// Control-plane only; it never sits on the data path.
	OpLatency sim.Time

	// Quota bounds how many nodes one unprivileged domain may own —
	// xenstored's defence against a guest exhausting the store (the
	// toolstack-DoS class §1 worries about). Dom0 is exempt.
	Quota int

	owned map[DomID]int
	ops   uint64
}

// New creates an empty store.
func New(eng *sim.Engine) *Store {
	return &Store{
		eng:       eng,
		root:      &node{},
		watchRoot: &watchNode{},
		OpLatency: 30 * sim.Microsecond,
		Quota:     1000,
		owned:     make(map[DomID]int),
	}
}

// Ops returns the number of store operations performed.
func (s *Store) Ops() uint64 { return s.ops }

// nextPart returns the first non-empty component of path at or after
// offset i and the offset just past it; part is "" when none remain. Walking
// a path with it allocates nothing, and it skips empty components the way
// normalize does.
func nextPart(path string, i int) (part string, next int) {
	for i < len(path) && path[i] == '/' {
		i++
	}
	j := i
	for j < len(path) && path[j] != '/' {
		j++
	}
	return path[i:j], j
}

// normalize returns the canonical form of path: a leading "/", no empty
// components, no trailing "/". A path already in that form is returned
// as is.
func normalize(path string) string {
	if path == "/" || len(path) > 1 && path[0] == '/' && path[len(path)-1] != '/' && !strings.Contains(path, "//") {
		return path
	}
	var b strings.Builder
	for part, i := nextPart(path, 0); part != ""; part, i = nextPart(path, i) {
		b.WriteByte('/')
		b.WriteString(part)
	}
	if b.Len() == 0 {
		return "/"
	}
	return b.String()
}

func (s *Store) lookup(path string) *node {
	n := s.root
	for part, i := nextPart(path, 0); part != ""; part, i = nextPart(path, i) {
		child := n.children[part]
		if child == nil {
			return nil
		}
		n = child
	}
	return n
}

func (s *Store) ensure(path string) *node {
	n := s.root
	for part, i := nextPart(path, 0); part != ""; part, i = nextPart(path, i) {
		child := n.children[part]
		if child == nil {
			child = &node{}
			if n.children == nil {
				n.children = make(map[string]*node)
			}
			n.children[part] = child
			n.names = nil
		}
		n = child
	}
	return n
}

// Write stores value at path, creating intermediate directories.
func (s *Store) Write(path, value string) {
	s.ops++
	s.version++
	n := s.ensure(path)
	n.value = value
	n.hasValue = true
	n.version = s.version
	s.fireWatches(normalize(path))
}

// Writef writes a formatted value.
func (s *Store) Writef(path, format string, args ...any) {
	s.Write(path, fmt.Sprintf(format, args...))
}

// Read returns the value at path and whether it exists.
func (s *Store) Read(path string) (string, bool) {
	s.ops++
	n := s.lookup(path)
	if n == nil || !n.hasValue {
		return "", false
	}
	return n.value, true
}

// ReadInt reads an integer value; ok is false if absent or malformed.
func (s *Store) ReadInt(path string) (int64, bool) {
	v, ok := s.Read(path)
	if !ok {
		return 0, false
	}
	out, err := strconv.ParseInt(v, 10, 64)
	return out, err == nil
}

// Mkdir creates an empty directory node.
func (s *Store) Mkdir(path string) {
	s.ops++
	s.version++
	s.ensure(path).version = s.version
	s.fireWatches(normalize(path))
}

// Exists reports whether a node (value or directory) exists at path.
func (s *Store) Exists(path string) bool { return s.lookup(path) != nil }

// Remove deletes the subtree at path. Removing a missing path is an error,
// as in xenstored.
func (s *Store) Remove(path string) error {
	s.ops++
	leaf, i := nextPart(path, 0)
	if leaf == "" {
		return fmt.Errorf("xenstore: refusing to remove root")
	}
	parent := s.root
	for next, j := nextPart(path, i); next != ""; next, j = nextPart(path, j) {
		parent = parent.children[leaf]
		if parent == nil {
			return fmt.Errorf("xenstore: remove of missing path %s", path)
		}
		leaf = next
	}
	if parent.children[leaf] == nil {
		return fmt.Errorf("xenstore: remove of missing path %s", path)
	}
	delete(parent.children, leaf)
	parent.names = nil
	s.version++
	s.fireWatches(normalize(path))
	return nil
}

// List returns the sorted child names of a directory (nil for missing).
// The slice is the directory's cached listing, shared by every caller until
// a child is added or removed: callers must not modify it. A later change
// replaces the cache rather than editing it, so a listing being iterated
// stays intact.
func (s *Store) List(path string) []string {
	s.ops++
	n := s.lookup(path)
	if n == nil {
		return nil
	}
	if n.names == nil {
		n.names = make([]string, 0, len(n.children))
		for name := range n.children {
			n.names = append(n.names, name)
		}
		sort.Strings(n.names)
	}
	return n.names
}

// Watch registers fn for changes at, above or below path. As xenstored
// does, the watch fires once immediately upon registration.
func (s *Store) Watch(path, token string, fn func(path, token string)) *Watch {
	s.watchSeq++
	w := &Watch{path: normalize(path), token: token, fn: fn, store: s, seq: s.watchSeq}
	n := s.watchRoot
	for part, i := nextPart(w.path, 0); part != ""; part, i = nextPart(w.path, i) {
		child := n.children[part]
		if child == nil {
			child = &watchNode{parent: n, name: part}
			if n.children == nil {
				n.children = make(map[string]*watchNode)
			}
			n.children[part] = child
		}
		n = child
	}
	n.watches = append(n.watches, w)
	w.at = n
	s.watches++
	s.fire(w, w.path)
	return w
}

// Unwatch removes a watch; in-flight callbacks are suppressed. Removing a
// watch twice is harmless.
func (s *Store) Unwatch(w *Watch) {
	w.dead = true
	n := w.at
	if n == nil {
		return
	}
	w.at = nil
	s.watches--
	i := slices.Index(n.watches, w)
	n.watches = slices.Delete(n.watches, i, i+1)
	for n.parent != nil && len(n.watches) == 0 && len(n.children) == 0 {
		delete(n.parent.children, n.name)
		n = n.parent
	}
}

// Watches returns the number of registered (not yet unwatched) watches.
func (s *Store) Watches() int { return s.watches }

// Fires returns how many times the watch callback actually ran.
func (w *Watch) Fires() uint64 { return w.fires }

// fireWatches fires every watch at, above or below changed (a normalized
// path) in registration order: it walks changed through the index
// collecting each ancestor's and the node's own watches, adds the node's
// whole subtree, and sorts the matches by sequence number.
func (s *Store) fireWatches(changed string) {
	m := append(s.matched[:0], s.watchRoot.watches...)
	n := s.watchRoot
	for part, i := nextPart(changed, 0); part != "" && n != nil; part, i = nextPart(changed, i) {
		if n = n.children[part]; n != nil {
			m = append(m, n.watches...)
		}
	}
	if n != nil {
		m = appendBelow(m, n)
	}
	slices.SortFunc(m, func(a, b *Watch) int { return cmp.Compare(a.seq, b.seq) })
	for _, w := range m {
		s.fire(w, changed)
	}
	clear(m)
	s.matched = m[:0]
}

// appendBelow appends the watches registered strictly below n.
func appendBelow(m []*Watch, n *watchNode) []*Watch {
	for _, child := range n.children {
		m = append(m, child.watches...)
		m = appendBelow(m, child)
	}
	return m
}

func (s *Store) fire(w *Watch, path string) {
	w.pending++
	s.eng.After(s.OpLatency, func() {
		w.pending--
		if w.dead {
			return
		}
		w.fires++
		w.fn(path, w.token)
	})
}

// SetPerms sets the owner and (optionally) restricted reader set of a
// subtree root. A nil readers slice means world-readable.
func (s *Store) SetPerms(path string, owner DomID, readers []DomID) {
	n := s.ensure(path)
	n.owner = owner
	n.hasPerms = true
	if readers == nil {
		n.readers = nil
		return
	}
	n.readers = make(map[DomID]bool, len(readers))
	for _, r := range readers {
		n.readers[r] = true
	}
}

// ReadAs performs a permission-checked read on behalf of dom: the owner and
// listed readers (and Dom0) may read; others get an error. Permissions are
// looked up on the nearest ancestor that declared any.
func (s *Store) ReadAs(dom DomID, path string) (string, error) {
	owner, readers := s.permsFor(path)
	if dom != 0 && dom != owner && readers != nil && !readers[dom] {
		return "", fmt.Errorf("xenstore: domain %d denied read of %s", dom, path)
	}
	v, ok := s.Read(path)
	if !ok {
		return "", fmt.Errorf("xenstore: %s does not exist", path)
	}
	return v, nil
}

// WriteAs performs a permission-checked, quota-checked write: only the
// owner and Dom0 may write, and unprivileged domains may not own more
// than Quota nodes.
func (s *Store) WriteAs(dom DomID, path, value string) error {
	owner, _ := s.permsFor(path)
	if dom != 0 && dom != owner {
		return fmt.Errorf("xenstore: domain %d denied write of %s", dom, path)
	}
	if dom != 0 && !s.Exists(path) {
		if s.owned[dom] >= s.Quota {
			return fmt.Errorf("xenstore: domain %d exceeded its %d-node quota", dom, s.Quota)
		}
		s.owned[dom]++
	}
	s.Write(path, value)
	return nil
}

// OwnedNodes returns how many nodes a domain has created through WriteAs.
func (s *Store) OwnedNodes(dom DomID) int { return s.owned[dom] }

// ReleaseQuota returns n nodes to a domain's allowance (the toolstack
// calls it when tearing down the domain's subtree).
func (s *Store) ReleaseQuota(dom DomID, n int) {
	s.owned[dom] -= n
	if s.owned[dom] < 0 {
		s.owned[dom] = 0
	}
}

func (s *Store) permsFor(path string) (DomID, map[DomID]bool) {
	n := s.root
	var owner DomID
	var readers map[DomID]bool
	for part, i := nextPart(path, 0); part != ""; part, i = nextPart(path, i) {
		n = n.children[part]
		if n == nil {
			break
		}
		if n.hasPerms {
			owner = n.owner
			readers = n.readers
		}
	}
	return owner, readers
}
