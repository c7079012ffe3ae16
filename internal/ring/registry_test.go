package ring

import "testing"

type channel struct{ queues int }

func TestRegistryPublishClaimDrop(t *testing.T) {
	r := NewRegistry[*channel]()
	ch := &channel{queues: 1}
	r.Publish(3, 0, ch)
	if got, ok := r.Claim(3, 0); !ok || got != ch {
		t.Fatalf("claim = %v, %v", got, ok)
	}
	if _, ok := r.Claim(3, 1); ok {
		t.Fatal("claim of unpublished device succeeded")
	}
	if _, ok := r.Claim(4, 0); ok {
		t.Fatal("claim of wrong domain succeeded")
	}
	r.Drop(3, 0)
	if _, ok := r.Claim(3, 0); ok {
		t.Fatal("claim after drop succeeded")
	}
}

func TestRegistryDistinctKeys(t *testing.T) {
	r := NewRegistry[*channel]()
	a := &channel{queues: 1}
	b := &channel{queues: 2}
	r.Publish(1, 0, a)
	r.Publish(1, 1, b)
	r.Publish(2, 0, b)
	if got, _ := r.Claim(1, 0); got != a {
		t.Fatal("key collision between devices")
	}
	if got, _ := r.Claim(2, 0); got != b {
		t.Fatal("key collision between domains")
	}
}
