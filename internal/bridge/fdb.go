package bridge

import "kite/internal/netpkt"

// The forwarding database is a shardtab.Table from learned MAC to port:
// O(1), allocation-free lookup and learn on the data path at any fleet
// size, deterministic aging on the table's timer wheel, and port flushes
// in deterministic slot order.

// macKey is a learned MAC as a table key.
type macKey netpkt.MAC

// Pack pads the MAC into the Toeplitz window. Reached from the table's
// //kite:hotpath lookups through the shardtab.Key constraint.
func (k macKey) Pack() [12]byte {
	var in [12]byte
	copy(in[0:6], k[:])
	return in
}

// fdbSeed keys the FDB's Toeplitz tables. Fixed so every run spreads MACs
// identically; independent from the rig's RSS seed on purpose — steering
// collisions must not imply FDB probe collisions.
const fdbSeed = 0xFDB0_5EED_0000_0001

// lookup returns the port mac was learned on, or nil.
//
//kite:hotpath
func (b *Bridge) lookup(mac netpkt.MAC) Port {
	if e := b.fdb.Lookup(macKey(mac)); e != nil {
		return e.Val
	}
	return nil
}

// learn records mac behind port, refreshing its last activity. Reports
// whether the entry is new or moved ports (the Learned counter's trigger).
//
//kite:hotpath
func (b *Bridge) learn(mac netpkt.MAC, port Port) bool {
	now := b.eng.Now()
	if e := b.fdb.Lookup(macKey(mac)); e != nil {
		moved := e.Val != port
		e.Val = port
		e.Last = now
		return moved
	}
	e, _ := b.fdb.Insert(macKey(mac), now)
	e.Val = port
	return true
}
