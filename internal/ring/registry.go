package ring

import "kite/internal/xen"

// Registry stands in for the grant-mapping of ring pages: a frontend
// publishes its channel (the ring set it allocated) under (frontend
// domain, device id); the backend claims it after reading the ring
// references from xenstore and paying the map hypercalls. netif and blkif
// each instantiate it with their own channel type.
type Registry[C any] struct {
	channels map[uint64]C
}

// NewRegistry returns an empty registry.
func NewRegistry[C any]() *Registry[C] {
	return &Registry[C]{channels: make(map[uint64]C)}
}

func key(dom xen.DomID, devid int) uint64 { return uint64(dom)<<32 | uint64(uint32(devid)) }

// Publish registers a frontend's channel.
func (r *Registry[C]) Publish(dom xen.DomID, devid int, ch C) {
	r.channels[key(dom, devid)] = ch
}

// Claim returns the channel published for (dom, devid); false means the
// frontend has not published it (a bad ring-ref).
func (r *Registry[C]) Claim(dom xen.DomID, devid int) (C, bool) {
	ch, ok := r.channels[key(dom, devid)]
	return ch, ok
}

// Drop removes a publication (frontend teardown).
func (r *Registry[C]) Drop(dom xen.DomID, devid int) { delete(r.channels, key(dom, devid)) }
