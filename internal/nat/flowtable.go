package nat

import (
	"encoding/binary"

	"kite/internal/netpkt"
	"kite/internal/shardtab"
)

// The flow table is a shardtab.Table from guest endpoint to translation:
// O(1), allocation-free lookup at any flow count, slab records recycled
// through a free-list so tenant churn reaches a high-water mark and stops
// allocating, and deterministic idle expiry on the table's timer wheel.
// Slab references are stable for a flow's lifetime, which lets the reverse
// (external-port) table be a flat array of them instead of a second map.

const (
	// portBase is the first dynamic external port; everything below is
	// reserved for static forwards and well-known services.
	portBase = 20000
	// portSpan is the size of the dynamic port space — the hard capacity
	// of the translator (per L4 protocol space merged, as before).
	portSpan = 1<<16 - portBase
)

// flowKey identifies an outbound flow by its guest endpoint.
type flowKey struct {
	proto   uint8
	guestIP netpkt.IP
	guestPt uint16 // ICMP: echo ID
}

// Pack pads the flow key into the Toeplitz window. Reached from the
// table's //kite:hotpath lookups through the shardtab.Key constraint.
func (k flowKey) Pack() [12]byte {
	var in [12]byte
	copy(in[0:4], k.guestIP[:])
	in[4] = k.proto
	binary.BigEndian.PutUint16(in[8:10], k.guestPt)
	return in
}

// flow is one translation's value.
type flow struct {
	extPort uint16
	dyn     bool // extPort was dynamically allocated (vs a static forward's)
}

// flowEnt is one translation record.
type flowEnt = shardtab.Entry[flowKey, flow]

// natSeed keys the flow table's Toeplitz tables (fixed: deterministic
// spreading, independent of the rig RSS seed).
const natSeed = 0x0A10_5EED_0000_0002
