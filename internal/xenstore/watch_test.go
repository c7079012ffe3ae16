package xenstore

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refWatch is one watch of the linear reference dispatcher.
type refWatch struct {
	id   int
	path string
}

// refNormalize is the reference's own path canonicalisation.
func refNormalize(p string) string {
	parts := strings.FieldsFunc(p, func(r rune) bool { return r == '/' })
	return "/" + strings.Join(parts, "/")
}

// refWithin reports whether p is equal to or beneath prefix, by the
// definition the indexed dispatcher must reproduce.
func refWithin(p, prefix string) bool {
	return p == prefix || prefix == "/" || strings.HasPrefix(p, prefix+"/")
}

// dispatchComponents gives each level two siblings where one name is a
// prefix of the other ("b" vs "bc"): the sibling-prefix trap.
var dispatchComponents = [4]string{"a", "b", "bc", "c"}

// dispatchPath decodes one byte into a path of depth 0-3 and a spelling:
// plain, doubled separators, a trailing slash, or no leading slash.
func dispatchPath(b, style byte) string {
	depth := int(b & 3)
	parts := make([]string, depth)
	for i := range parts {
		parts[i] = dispatchComponents[(b>>(2+2*i))&3]
	}
	switch style & 3 {
	case 1:
		return "//" + strings.Join(parts, "//")
	case 2:
		return "/" + strings.Join(parts, "/") + "/"
	case 3:
		return strings.Join(parts, "/")
	}
	return "/" + strings.Join(parts, "/")
}

// runDispatch drives one store and the linear reference through the same
// operation stream, two bytes per operation, and fails unless the store
// delivers exactly the reference's (watch, path) sequence. The op byte's
// low three bits pick Write, Mkdir, Remove, Watch, Unwatch, or draining
// the engine; bits 3-4 pick the path spelling and bits 5-7 which live
// watch an Unwatch drops. The second byte is the path.
func runDispatch(t *testing.T, ops []byte) {
	t.Helper()
	eng, s := newStore()
	var got, want []string
	var ref []refWatch   // live reference watches, registration order
	var pending []string // reference fires scheduled but not delivered
	live := map[int]*Watch{}
	nextID := 0

	deliver := func(path, token string) { got = append(got, token+" "+path) }
	schedule := func(id int, path string) {
		pending = append(pending, strconv.Itoa(id)+" "+path)
	}
	mutate := func(path string) {
		changed := refNormalize(path)
		for _, w := range ref {
			if refWithin(changed, w.path) || refWithin(w.path, changed) {
				schedule(w.id, changed)
			}
		}
	}
	drain := func() {
		eng.Run()
		want = append(want, pending...)
		pending = pending[:0]
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, path := ops[i], dispatchPath(ops[i+1], ops[i]>>3)
		switch op & 7 {
		case 0, 1:
			s.Write(path, "v")
			mutate(path)
		case 2:
			s.Mkdir(path)
			mutate(path)
		case 3:
			if s.Remove(path) == nil {
				mutate(path)
			}
		case 4, 5:
			id := nextID
			nextID++
			live[id] = s.Watch(path, strconv.Itoa(id), deliver)
			ref = append(ref, refWatch{id, refNormalize(path)})
			schedule(id, refNormalize(path))
		case 6:
			if len(ref) == 0 {
				continue
			}
			k := int(op>>5) % len(ref)
			id := ref[k].id
			s.Unwatch(live[id])
			delete(live, id)
			ref = append(ref[:k], ref[k+1:]...)
			tag := strconv.Itoa(id) + " "
			kept := pending[:0]
			for _, p := range pending {
				if !strings.HasPrefix(p, tag) {
					kept = append(kept, p)
				}
			}
			pending = kept
		case 7:
			drain()
		}
		if s.Watches() != len(ref) {
			t.Fatalf("op %d: store reports %d live watches, reference %d", i/2, s.Watches(), len(ref))
		}
	}
	drain()
	if len(got) != len(want) {
		t.Fatalf("delivered %d fires, reference %d\ngot  %q\nwant %q", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fire %d = %q, reference %q", i, got[i], want[i])
		}
	}
}

// TestWatchDispatchMatchesLinear checks the indexed dispatcher against the
// linear reference on seeded random streams, led by fixed cases for the
// root watch, separator spellings and the "/a/b" vs "/a/bc" trap.
func TestWatchDispatchMatchesLinear(t *testing.T) {
	// Paths are encoded as depth | c0<<2 | c1<<4 | c2<<6 over
	// dispatchComponents.
	ab, abc := byte(2|0<<2|1<<4), byte(2|0<<2|2<<4)
	root := byte(0)
	fixed := []byte{
		4, root, // watch "/"
		4 | 1<<3, root, // watch "//"
		4, ab, // watch /a/b
		4 | 2<<3, abc, // watch /a/bc/
		0, abc, // write /a/bc: not /a/b's
		0 | 1<<3, ab | 1<<6 | 1, // write //a//b//b: below /a/b
		2 | 3<<3, byte(1 | 0<<2), // mkdir a
		7, 0,
		6 | 2<<5, 0, // unwatch /a/b
		3, byte(1 | 0<<2), // remove /a: the subtree, every watch
		3, byte(1 | 0<<2), // remove it again: missing, no fire
		7, 0,
	}
	runDispatch(t, fixed)

	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(20+rng.Intn(200)))
		rng.Read(ops)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runDispatch(t, ops) })
	}
}

// FuzzWatchDispatch checks the indexed dispatcher against the linear
// reference on arbitrary operation streams (see runDispatch for the
// encoding). Its seed corpus is testdata/fuzz/FuzzWatchDispatch.
func FuzzWatchDispatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runDispatch(t, ops)
	})
}
