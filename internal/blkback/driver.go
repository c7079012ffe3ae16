package blkback

import (
	"fmt"

	"kite/internal/blkif"
	"kite/internal/nvme"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// Driver is the storage backend driver: the device half of a
// xenbus.Backend watching the driver domain's backend/vbd subtree. It
// advertises device properties for each new vbd (§4.4: sectors, sector
// size, flush, persistent grants, indirect limit) and pairs frontends
// with blkback instances through the same backend-invocation thread as
// networking (§4.1). The vbd window on the physical device comes from the
// toolstack-written "params" key ("<base>:<sectors>").
type Driver struct {
	eng   *sim.Engine
	dom   *xen.Domain
	bus   *xenbus.Bus
	reg   *blkif.Registry
	dev   *nvme.Device
	costs Costs
	be    *xenbus.Backend[*Instance]

	// base and sectors are the window Advertise read for the vbd being
	// paired; Connect, in the same attempt, builds the instance on it.
	base, sectors int64

	lanes    []*ServiceLane // fleet mode: shared DRR workers
	laneNext int            // round-robin lane assignment cursor
}

// NewDriver starts the backend driver in dom, exporting windows of dev.
func NewDriver(eng *sim.Engine, dom *xen.Domain, bus *xenbus.Bus,
	reg *blkif.Registry, dev *nvme.Device, costs Costs) *Driver {

	drv := &Driver{eng: eng, dom: dom, bus: bus, reg: reg, dev: dev, costs: costs}
	drv.be = xenbus.NewBackend[*Instance](eng, dom, bus, xenstore.DevVbd, blkif.MaxQueues, costs.WakeLatency, drv)
	return drv
}

// SetFleet switches the driver into fleet mode with n shared DRR lanes:
// lane i's worker runs on vCPU i (mod the domain's vCPU count), and
// connecting single-queue frontends are assigned to lanes round-robin
// instead of getting dedicated request threads. The backend-invocation
// thread moves to the domain's last vCPU. It returns the tenant ledger
// the driver reports attaches and detaches to. Must be called before any
// frontend connects.
func (d *Driver) SetFleet(n int) *xenbus.TenantRegistry {
	d.lanes = make([]*ServiceLane, n)
	for i := range d.lanes {
		d.lanes[i] = NewServiceLane(i, d.dom, d.eng, i%d.dom.CPUs.Len(), d.costs)
	}
	return d.be.Fleet()
}

// Lanes returns the fleet service lanes (nil in dedicated-worker mode).
func (d *Driver) Lanes() []*ServiceLane { return d.lanes }

// Instances returns the live blkback instances in attach order.
func (d *Driver) Instances() []*Instance { return d.be.Instances() }

// Invocations counts pairing attempts.
func (d *Driver) Invocations() uint64 { return d.be.Invocations() }

// Advertise checks the vbd's window on every attempt (a bad one closes
// the backend) and at Initialising advertises the device properties (§4.4
// initialization).
func (d *Driver) Advertise(backPath string, _ xenbus.State) error {
	var err error
	if d.base, d.sectors, err = d.window(backPath); err != nil {
		return err
	}
	// Read the state once more after params. It always equals the state
	// Backend passed in (nothing runs between the two reads), but every
	// vbd pairing attempt pays this store op and the control-plane op
	// counts include it.
	if d.bus.State(backPath) != xenbus.StateInitialising {
		return nil
	}
	st := d.bus.Store()
	st.Writef(backPath+"/"+xenstore.KeySectors, "%d", d.sectors)
	st.Writef(backPath+"/"+xenstore.KeySectorSize, "%d", blkif.SectorSize)
	d.bus.WriteFeature(backPath, xenstore.KeyFeatureFlushCache, true)
	d.bus.WriteFeature(backPath, xenstore.KeyFeaturePersistent, d.costs.Persistent)
	if d.costs.Indirect {
		st.Writef(backPath+"/"+xenstore.KeyFeatureMaxIndirect, "%d", blkif.MaxSegsIndirect)
	}
	return nil
}

// Connect maps the frontend's rings and builds its instance on a fleet
// lane or with dedicated request threads. The storage ledger records no
// lane, so the lane it returns is always -1.
func (d *Driver) Connect(c xenbus.Conn) (*Instance, int, error) {
	ch, ok := d.reg.Claim(c.FrontDom, c.DevID)
	if !ok || ch.NumQueues() != len(c.Ports) {
		// Rings not published yet, or store and registry disagree.
		return nil, -1, xenbus.ErrNotReady
	}
	if d.lanes != nil && len(c.Ports) == 1 {
		lane := d.lanes[d.laneNext%len(d.lanes)]
		d.laneNext++
		inst, err := NewInstanceOnLane(d.eng, d.dom, c.FrontDom, c.DevID, ch, c.Ports,
			d.dev, d.base, d.sectors, d.costs, lane)
		return inst, -1, err
	}
	inst, err := NewInstance(d.eng, d.dom, c.FrontDom, c.DevID, ch, c.Ports,
		d.dev, d.base, d.sectors, d.costs)
	return inst, -1, err
}

// Disconnect shuts an instance down.
func (d *Driver) Disconnect(inst *Instance) { inst.Shutdown() }

// window parses the toolstack's "params" key: "<baseSector>:<sectors>".
func (d *Driver) window(backPath string) (base, sectors int64, err error) {
	v, ok := d.bus.Store().Read(backPath + "/" + xenstore.KeyParams)
	if !ok {
		return 0, 0, fmt.Errorf("blkback: %s missing params", backPath)
	}
	if _, err := fmt.Sscanf(v, "%d:%d", &base, &sectors); err != nil {
		return 0, 0, fmt.Errorf("blkback: bad params %q: %w", v, err)
	}
	if base < 0 || sectors <= 0 || base+sectors > d.dev.CapacitySectors() {
		return 0, 0, fmt.Errorf("blkback: window %d:%d exceeds device", base, sectors)
	}
	return base, sectors, nil
}
