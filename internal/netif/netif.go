// Package netif defines the shared netif ring protocol between netfront
// and netback (xen/io/netif.h): request/response formats for the Tx and Rx
// rings and the registry through which a backend "maps" a frontend's ring
// pages. One Tx ring carries guest→backend packets, one Rx ring carries
// backend→guest packets; both are allocated by the frontend (§2.2.1).
package netif

import (
	"fmt"

	"kite/internal/ring"
	"kite/internal/xen"
)

// RingSize is the netif ring slot count (matching Xen's 256-slot rings).
const RingSize = 256

// MaxQueues caps the negotiated queue count per vif, like xen-netback's
// xenvif_max_queues module parameter.
const MaxQueues = 8

// Status codes in responses (netif.h's NETIF_RSP_*).
const (
	StatusOK      = 0
	StatusError   = -1
	StatusDropped = -2
)

// TxRequest asks the backend to transmit a frame stored in a granted page.
type TxRequest struct {
	ID     uint16
	Ref    xen.GrantRef
	Offset int
	Len    int
}

// TxResponse reports completion of a TxRequest.
type TxResponse struct {
	ID     uint16
	Status int8
}

// RxRequest posts a granted page the backend may fill with a received
// frame (rx-copy mode: the backend grant-copies into it).
type RxRequest struct {
	ID  uint16
	Ref xen.GrantRef
}

// RxResponse reports a filled Rx buffer.
type RxResponse struct {
	ID     uint16
	Offset int
	Len    int
	Status int8
}

// TxRing is one guest→backend ring.
type TxRing = ring.Ring[TxRequest, TxResponse]

// RxRing is one backend→guest ring.
type RxRing = ring.Ring[RxRequest, RxResponse]

// TxRings is the multi-queue set of Tx rings.
type TxRings = ring.MultiRing[TxRequest, TxResponse]

// RxRings is the multi-queue set of Rx rings.
type RxRings = ring.MultiRing[RxRequest, RxResponse]

// NewTxRing allocates a Tx ring of the standard size.
func NewTxRing() *TxRing { return ring.New[TxRequest, TxResponse](RingSize) }

// NewRxRing allocates an Rx ring of the standard size.
func NewRxRing() *RxRing { return ring.New[RxRequest, RxResponse](RingSize) }

// NewTxRings allocates n standard-size Tx rings.
func NewTxRings(n int) *TxRings { return ring.NewMulti[TxRequest, TxResponse](n, RingSize) }

// NewRxRings allocates n standard-size Rx rings.
func NewRxRings(n int) *RxRings { return ring.NewMulti[RxRequest, RxResponse](n, RingSize) }

// Channel bundles what a backend obtains by mapping the frontend's shared
// pages: the negotiated set of Tx and Rx rings, one pair per queue. (Event
// channels are negotiated separately through xenstore, as for real.)
type Channel struct {
	Tx *TxRings
	Rx *RxRings
}

// NewChannel allocates a channel with n queue pairs.
func NewChannel(n int) *Channel {
	return &Channel{Tx: NewTxRings(n), Rx: NewRxRings(n)}
}

// NumQueues returns the channel's queue count.
func (c *Channel) NumQueues() int { return c.Tx.NumQueues() }

// Registry is the netif instance of the ring-publication registry.
type Registry struct{ *ring.Registry[*Channel] }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{ring.NewRegistry[*Channel]()} }

// Claim returns the rings for (dom, devid) or an error if the frontend has
// not published them (bad ring-ref).
func (r *Registry) Claim(dom xen.DomID, devid int) (*Channel, error) {
	ch, ok := r.Registry.Claim(dom, devid)
	if !ok {
		return nil, fmt.Errorf("netif: no rings published for domain %d device %d", dom, devid)
	}
	return ch, nil
}
