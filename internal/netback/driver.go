package netback

import (
	"kite/internal/bridge"
	"kite/internal/framepool"
	"kite/internal/netif"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// Driver is the per-domain network backend driver: the device half of a
// xenbus.Backend watching the driver domain's backend/vif subtree, which
// pairs every waiting frontend with a fresh VIF instance (§4.1 backend
// invocation) and plugs it into the bridge.
type Driver struct {
	eng   *sim.Engine
	dom   *xen.Domain
	bus   *xenbus.Bus
	reg   *netif.Registry
	br    *bridge.Bridge
	costs Costs
	pool  *framepool.Pool
	be    *xenbus.Backend[*VIF]

	shards   []*sim.Engine
	lanes    []*ServiceLane // fleet mode: shared DRR workers, one per shard
	laneNext int            // round-robin lane assignment cursor
}

// NewDriver starts the backend driver in dom, serving frontends through
// the given bridge. All VIFs draw frame buffers from pool (nil for a
// private pool).
func NewDriver(eng *sim.Engine, dom *xen.Domain, bus *xenbus.Bus,
	reg *netif.Registry, br *bridge.Bridge, costs Costs,
	pool *framepool.Pool) *Driver {

	if pool == nil {
		pool = framepool.New()
	}
	drv := &Driver{eng: eng, dom: dom, bus: bus, reg: reg, br: br, costs: costs, pool: pool}
	drv.be = xenbus.NewBackend[*VIF](eng, dom, bus, xenstore.DevVif, netif.MaxQueues, costs.WakeLatency, drv)
	return drv
}

// SetShards pins each VIF queue i to shards[i] (cluster shard engines);
// the backend-invocation thread moves to the domain's last vCPU, leaving
// vCPUs 0..len(shards)-1 to the queues. Must be called before any frontend
// connects.
func (d *Driver) SetShards(shards []*sim.Engine) {
	d.shards = shards
	d.be.Shard()
	// Every queue<->bridge dispatch models at least shardHandoff of
	// latency, so that is the conservative edge bound between the bridge
	// shard and each queue shard.
	for _, sh := range shards {
		sim.DeclareLink(d.eng, sh, shardHandoff)
	}
}

// SetFleet switches the driver into fleet mode: instead of dedicated
// pusher/soft_start threads per VIF, it creates one ServiceLane per shard
// (lane i pinned to vCPU i on shards[i], forwarding on the vCPUs after
// the lane block) and assigns connecting single-queue frontends to lanes
// round-robin. The backend-invocation thread moves to the domain's last
// vCPU. It returns the tenant ledger the driver reports attaches and
// detaches to. Must be called before any frontend connects.
func (d *Driver) SetFleet(shards []*sim.Engine) *xenbus.TenantRegistry {
	d.lanes = make([]*ServiceLane, len(shards))
	for _, sh := range shards {
		// Lane workers hand frames to/from the bridge shard with at least
		// the queue dispatch latency, like dedicated-worker queues.
		sim.DeclareLink(d.eng, sh, shardHandoff)
	}
	for i, sh := range shards {
		fwd := len(shards) + i
		if fwd > d.dom.CPUs.Len()-1 {
			fwd = d.dom.CPUs.Len() - 1
		}
		d.lanes[i] = NewServiceLane(i, d.dom, sh, d.dom.CPUs.CPU(i),
			d.br, d.dom.CPUs.CPU(fwd), d.costs)
	}
	return d.be.Fleet()
}

// Lanes returns the fleet service lanes (nil in dedicated-worker mode).
func (d *Driver) Lanes() []*ServiceLane { return d.lanes }

// VIFs returns the live instances in attach order.
func (d *Driver) VIFs() []*VIF { return d.be.Instances() }

// Invocations returns how many pairing attempts the thread performed.
func (d *Driver) Invocations() uint64 { return d.be.Invocations() }

// Advertise announces the vif features at Initialising.
func (d *Driver) Advertise(backPath string, s xenbus.State) error {
	if s == xenbus.StateInitialising {
		d.bus.WriteFeature(backPath, xenstore.KeyFeatureRxCopy, true)
	}
	return nil
}

// Connect maps the frontend's rings and builds its VIF on a fleet lane or
// with dedicated workers, then plugs it into the bridge.
func (d *Driver) Connect(c xenbus.Conn) (*VIF, int, error) {
	st := d.bus.Store()
	nq := len(c.Ports)
	var rssSeed uint64
	if nq > 1 {
		seed, ok := st.ReadInt(c.FrontPath + "/" + xenstore.KeyMultiQueueHashSeed)
		if !ok {
			return nil, -1, xenbus.ErrNotReady // multi-queue frontends must publish their steering seed
		}
		rssSeed = uint64(seed)
	}
	ch, err := d.reg.Claim(c.FrontDom, c.DevID)
	if err != nil || ch.NumQueues() != nq {
		// Ring refs not published yet, or store and registry disagree.
		return nil, -1, xenbus.ErrNotReady
	}
	var vif *VIF
	laneID := -1
	if d.lanes != nil && nq == 1 {
		// The toolstack may pin the tenant to a lane (it pinned the
		// frontend's shard to match); otherwise assign round-robin.
		lane := d.lanes[d.laneNext%len(d.lanes)]
		if hint, ok := st.ReadInt(c.BackPath + "/" + xenstore.KeyTenantLane); ok {
			lane = d.lanes[int(hint)%len(d.lanes)]
		} else {
			d.laneNext++
		}
		laneID = lane.ID()
		vif, err = NewVIFOnLane(d.eng, d.dom, c.FrontDom, c.DevID, ch,
			c.Ports, d.br, d.costs, d.pool, lane)
	} else {
		vif, err = NewVIF(d.eng, d.dom, c.FrontDom, c.DevID, ch,
			c.Ports, d.br, d.costs, d.pool, rssSeed, d.shards)
	}
	if err != nil {
		return nil, -1, err
	}
	d.br.AddPort(vif)
	if laneID >= 0 {
		// Fleet tenants speak only through the NAT router: isolating their
		// ports keeps one tenant's broadcasts (gateway ARP, mostly) from
		// fanning a copy into every other tenant's RX queue.
		d.br.SetIsolated(vif, true)
	}
	return vif, laneID, nil
}

// Disconnect unplugs a VIF from the bridge and shuts it down.
func (d *Driver) Disconnect(vif *VIF) {
	d.br.RemovePort(vif)
	vif.Shutdown()
}
