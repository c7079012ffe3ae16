// Package core is the Kite system: the orchestration layer that builds
// unikernelized service domains (the paper's contribution) and their
// Linux-based baseline equivalents on top of the simulated Xen substrate.
//
// It plays two roles the paper describes:
//
//   - the minimal toolstack functionality a driver domain needs (device
//     entries in xenstore, PCI passthrough assignment, vbd windows) —
//     replacing xl/libxl's heavyweight path (§1, §3.1), and
//   - the in-domain configuration applications: the network application
//     that creates the bridge, brings up the physical IF and attaches new
//     VIFs (§4.3, ifconfig/brconfig), and the block status application
//     that oversees vbd instances (§4.4).
//
// A System owns one simulation; CreateNetworkDomain / CreateStorageDomain
// / CreateGuest / CreateDaemonVM assemble the paper's testbed piece by
// piece.
//
//kite:deterministic
package core

import (
	"errors"
	"fmt"

	"kite/internal/apps"

	"kite/internal/blkback"
	"kite/internal/blkfront"
	"kite/internal/blkif"
	"kite/internal/blkpool"
	"kite/internal/bridge"
	"kite/internal/bufpool"
	"kite/internal/framepool"
	"kite/internal/fsim"
	"kite/internal/guestos"
	"kite/internal/nat"
	"kite/internal/netback"
	"kite/internal/netfront"
	"kite/internal/netif"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/nic"
	"kite/internal/nvme"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// errNotReady reports a rig whose handshakes did not complete.
var errNotReady = errors.New("core: devices did not reach Connected")

// DriverKind selects the driver-domain implementation.
type DriverKind int

// Driver domain kinds.
const (
	KindKite DriverKind = iota
	KindLinux
)

func (k DriverKind) String() string {
	if k == KindKite {
		return "kite"
	}
	return "linux"
}

// System is one simulated machine running Xen with Dom0 and the service
// domains Kite manages.
type System struct {
	Eng    *sim.Engine
	HV     *xen.Hypervisor
	Store  *xenstore.Store
	Bus    *xenbus.Bus
	NetReg *netif.Registry
	BlkReg *blkif.Registry
	Dom0   *xen.Domain

	// Pool is the system-wide frame buffer pool every network component
	// draws from; Pool.Outstanding() == 0 at quiesce proves no component
	// leaked a frame reference.
	Pool *framepool.Pool

	// BlkPool is its storage sibling: the sector-buffer pool every
	// blkfront draws read completions from. BlkPool.Outstanding() == 0 at
	// quiesce proves no storage component leaked a buffer.
	BlkPool *blkpool.Pool

	// Cluster is non-nil when the event core is sharded across per-queue
	// engines (NewShardedSystem); Eng is then the cluster's shard 0, where
	// everything that is not a pinned PV queue lives.
	Cluster *sim.Cluster

	seed        uint64
	nextVbdBase int64
}

// ShardLookahead is the conservative lookahead window of sharded systems:
// every cross-shard hand-off in the PV data paths (qdisc dispatch, softirq
// delivery, bridge input) models at least this much latency, so shards can
// safely run that far apart within a window.
const ShardLookahead = 2 * sim.Microsecond

// NewSystem boots the hypervisor and Dom0 (which hosts xenstored; per §5,
// Dom0 has no storage or network drivers).
func NewSystem(seed uint64) *System { return newSystem(seed, nil) }

// NewShardedSystem boots a system whose discrete-event core is split into
// 1+queues cluster shards: shard 0 carries the hypervisor, Dom0, bridges,
// stacks and devices; shard 1+i is reserved for queue i of the PV
// transports. Runs are bit-identical to any worker count (and to the same
// topology at workers=1); wall clock drops as workers are added.
func NewShardedSystem(seed uint64, queues int) *System {
	return newSystem(seed, sim.NewCluster(1+queues, ShardLookahead, seed))
}

func newSystem(seed uint64, cluster *sim.Cluster) *System {
	var eng *sim.Engine
	if cluster != nil {
		eng = cluster.Shard(0)
		// The PV transports form a star: every cross-shard hand-off runs
		// between the home shard (devices, bridge, stacks) and a queue
		// shard, never queue-to-queue. Declaring exactly those edges lets
		// the cluster derive per-shard horizons — a queue shard is bounded
		// by the home shard at one hop but by its sibling queues only at
		// two (2·ShardLookahead via the closure) — and turns any
		// undeclared queue-to-queue post into an immediate panic. The
		// drivers refine these edges with their own hand-off latencies at
		// pinning time (netback.SetShards/SetFleet, netfront queue setup).
		for i := 1; i < cluster.Shards(); i++ {
			cluster.DeclareEdge(0, i, ShardLookahead)
			cluster.DeclareEdge(i, 0, ShardLookahead)
		}
	} else {
		eng = sim.NewEngine()
	}
	hv := xen.New(eng)
	dom0 := hv.CreateDomain(xen.DomainConfig{
		Name: "dom0", VCPUs: 2, MemBytes: 8 << 30, Privileged: true,
		IRQLatency: 6 * sim.Microsecond,
	})
	store := xenstore.New(eng)
	s := &System{
		Eng: eng, HV: hv, Store: store, Bus: xenbus.New(store),
		NetReg: netif.NewRegistry(), BlkReg: blkif.NewRegistry(),
		Dom0: dom0, Pool: framepool.New(), BlkPool: blkpool.New(),
		Cluster: cluster, seed: seed, nextVbdBase: 2048,
	}
	if cluster != nil {
		// Free lists live on shard 0; remote releases post back home.
		// Releases staged on queue shards arrive a lookahead window late,
		// so pre-size the shared list: stacks and NICs must never allocate
		// just because a recycled frame is still in flight between shards.
		s.Pool.SetHome(eng)
		s.Pool.Prealloc(2 * netif.RingSize)
	}
	return s
}

// QueueShards returns the engines reserved for PV queue pinning (shard 1
// onward), or nil for an unsharded system.
func (s *System) QueueShards() []*sim.Engine {
	if s.Cluster == nil {
		return nil
	}
	qs := make([]*sim.Engine, s.Cluster.Shards()-1)
	for i := range qs {
		qs[i] = s.Cluster.Shard(1 + i)
	}
	return qs
}

// RunReady drives the simulation until ready() holds (or the event cap
// trips, returning false). It is the "wait for handshakes" helper.
func (s *System) RunReady(ready func() bool, maxEvents uint64) bool {
	start := s.Eng.Processed()
	for !ready() {
		if !s.Eng.Step() {
			return ready()
		}
		if s.Eng.Processed()-start > maxEvents {
			return false
		}
	}
	return true
}

// NetworkDomainConfig describes a network driver domain to build.
type NetworkDomainConfig struct {
	Kind DriverKind
	NIC  *nic.NIC
	// Boot runs the OS boot sequence before the domain serves (E1 measures
	// it); when false the domain is ready immediately.
	Boot bool
	// NAT switches the network application from bridging to network
	// address translation (§3.1's alternative organization): guests sit on
	// a private segment and share GatewayIP on the physical side.
	NAT       bool
	GatewayIP netpkt.IP
	// VCPUs overrides the profile's vCPU count (§5 uses 1; the design
	// supports more for I/O scaling).
	VCPUs int
	// Fleet switches the netback driver into fleet mode on a sharded
	// system: shared DRR service lanes (one per queue shard) serve many
	// single-queue tenants instead of per-VIF dedicated workers. The
	// domain needs 2*lanes+1 vCPUs (lane workers, bridge forwarding,
	// invoker); VCPUs defaults to that when unset.
	Fleet bool
}

// NetworkDomain is a running network driver domain: the physical NIC, the
// bridge (or NAT router), and the netback driver, all inside one
// unprivileged VM.
type NetworkDomain struct {
	Dom     *xen.Domain
	Profile *guestos.Profile
	Kind    DriverKind
	Bridge  *bridge.Bridge
	Driver  *netback.Driver
	NIC     *nic.NIC

	// Tenants is the driver's attach/detach ledger in fleet mode (nil
	// otherwise).
	Tenants *xenbus.TenantRegistry

	// NATRouter is non-nil in NAT mode.
	router *natRouter

	ready   bool
	bootLog []string
}

// NAT returns the translator when the domain runs in NAT mode (nil in
// bridge mode); use it to install port forwards.
func (nd *NetworkDomain) NAT() *nat.Translator {
	if nd.router == nil {
		return nil
	}
	return nd.router.Translator()
}

// Ready reports whether the domain finished booting and configuring.
func (nd *NetworkDomain) Ready() bool { return nd.ready }

// AttachNIC adds a second physical NIC to the domain's bridge (§3.1: one
// Kite domain can serve several NICs for I/O scaling, since it supports
// multiple cores). Only meaningful in bridge mode.
func (nd *NetworkDomain) AttachNIC(s *System, dev *nic.NIC, name string) error {
	if nd.router != nil {
		return fmt.Errorf("core: AttachNIC unsupported in NAT mode")
	}
	if err := s.HV.AssignPCI(dev.BDF(), nd.Dom.ID); err != nil {
		return err
	}
	nd.Bridge.AttachDevice(name, dev)
	return nil
}

// BootLog returns the boot phases observed (E1 diagnostics).
func (nd *NetworkDomain) BootLog() []string { return nd.bootLog }

// CreateNetworkDomain builds a network driver domain of the given kind
// and assigns it the physical NIC via PCI passthrough.
func (s *System) CreateNetworkDomain(cfg NetworkDomainConfig) (*NetworkDomain, error) {
	var profile *guestos.Profile
	var costs netback.Costs
	var brCost sim.Time
	if cfg.Kind == KindKite {
		profile = guestos.KiteNetworkDomain()
		costs = netback.KiteCosts()
		brCost = 250 * sim.Nanosecond
	} else {
		profile = guestos.UbuntuDriverDomain()
		costs = netback.LinuxCosts()
		brCost = 320 * sim.Nanosecond // netfilter hooks on the bridge path
	}
	vcpus := profile.VCPUs
	if cfg.VCPUs > 0 {
		vcpus = cfg.VCPUs
	} else if cfg.Fleet {
		if qs := s.QueueShards(); qs != nil {
			vcpus = 2*len(qs) + 1
		}
	}
	dom := s.HV.CreateDomain(xen.DomainConfig{
		Name: fmt.Sprintf("netdd-%s", cfg.Kind), VCPUs: vcpus,
		MemBytes: profile.MemBytes, IRQLatency: profile.IRQLatency,
	})
	if err := s.HV.AssignPCI(cfg.NIC.BDF(), dom.ID); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	nd := &NetworkDomain{Dom: dom, Profile: profile, Kind: cfg.Kind, NIC: cfg.NIC}

	start := func() {
		// The network application (§4.3): create the bridge (or the NAT
		// router), attach the physical IF, then serve frontends. In a
		// sharded system vCPUs 0..Q-1 are pinned one-per-queue by the
		// netback driver; the bridge path runs on the remaining width.
		brCPUs := dom.CPUs
		if qs := s.QueueShards(); qs != nil && dom.CPUs.Len() > len(qs) {
			brCPUs = dom.CPUs.Slice(len(qs), dom.CPUs.Len())
		}
		nd.Bridge = bridge.New(s.Eng, brCPUs, "xenbr0")
		nd.Bridge.PerFrameCost = brCost
		if cfg.NAT {
			nd.router = newNATRouter(s.Eng, dom, nd.Bridge, cfg.NIC,
				cfg.NIC.MAC(), cfg.GatewayIP, brCost, s.Pool)
		} else {
			nd.Bridge.AttachDevice("if0", cfg.NIC)
		}
		nd.Driver = netback.NewDriver(s.Eng, dom, s.Bus, s.NetReg, nd.Bridge, costs, s.Pool)
		if qs := s.QueueShards(); qs != nil {
			if cfg.Fleet {
				nd.Tenants = nd.Driver.SetFleet(qs)
			} else {
				nd.Driver.SetShards(qs)
			}
		}
		nd.ready = true
	}
	if cfg.Boot {
		profile.Boot(s.Eng, func(ph guestos.BootPhase) {
			nd.bootLog = append(nd.bootLog, ph.Name)
		}, start)
	} else {
		start()
	}
	return nd, nil
}

// StorageDomainConfig describes a storage driver domain.
type StorageDomainConfig struct {
	Kind   DriverKind
	Device *nvme.Device
	Boot   bool
	// Tuning exposes the blkback feature knobs for ablation benches; nil
	// means the kind's defaults.
	Tuning *blkback.Costs
	// VCPUs overrides the profile's vCPU count; blkback advertises one
	// hardware queue per vCPU, so multi-queue vbds need VCPUs > 1.
	VCPUs int
	// FleetLanes switches the blkback driver into fleet mode with this
	// many shared DRR request lanes serving single-queue tenants; VCPUs
	// defaults to FleetLanes+1 (lane workers + invoker).
	FleetLanes int
}

// StorageDomain is a running storage driver domain.
type StorageDomain struct {
	Dom     *xen.Domain
	Profile *guestos.Profile
	Kind    DriverKind
	Driver  *blkback.Driver
	Device  *nvme.Device

	// Tenants is the driver's attach/detach ledger in fleet mode (nil
	// otherwise).
	Tenants *xenbus.TenantRegistry

	ready bool
}

// Ready reports whether the domain is serving.
func (sd *StorageDomain) Ready() bool { return sd.ready }

// CreateStorageDomain builds a storage driver domain owning the NVMe
// device.
func (s *System) CreateStorageDomain(cfg StorageDomainConfig) (*StorageDomain, error) {
	var profile *guestos.Profile
	var costs blkback.Costs
	if cfg.Kind == KindKite {
		profile = guestos.KiteStorageDomain()
		costs = blkback.KiteCosts()
	} else {
		profile = guestos.UbuntuDriverDomain()
		costs = blkback.LinuxCosts()
	}
	if cfg.Tuning != nil {
		costs = *cfg.Tuning
	}
	vcpus := profile.VCPUs
	if cfg.VCPUs > 0 {
		vcpus = cfg.VCPUs
	} else if cfg.FleetLanes > 0 {
		vcpus = cfg.FleetLanes + 1
	}
	dom := s.HV.CreateDomain(xen.DomainConfig{
		Name: fmt.Sprintf("blkdd-%s", cfg.Kind), VCPUs: vcpus,
		MemBytes: profile.MemBytes, IRQLatency: profile.IRQLatency,
	})
	if err := s.HV.AssignPCI(cfg.Device.BDF(), dom.ID); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sd := &StorageDomain{Dom: dom, Profile: profile, Kind: cfg.Kind, Device: cfg.Device}
	start := func() {
		// The block status application (§4.4) is the blkback driver
		// itself: its xenbus.Backend holds the watch thread that pairs
		// every vbd.
		sd.Driver = blkback.NewDriver(s.Eng, dom, s.Bus, s.BlkReg, cfg.Device, costs)
		if cfg.FleetLanes > 0 {
			sd.Tenants = sd.Driver.SetFleet(cfg.FleetLanes)
		}
		sd.ready = true
	}
	if cfg.Boot {
		profile.Boot(s.Eng, nil, start)
	} else {
		start()
	}
	return sd, nil
}

// pickBlkCosts returns the blkback cost profile for a kind.
func pickBlkCosts(kind DriverKind) blkback.Costs {
	if kind == KindKite {
		return blkback.KiteCosts()
	}
	return blkback.LinuxCosts()
}

// GuestConfig describes a DomU application VM.
type GuestConfig struct {
	Name string
	IP   netpkt.IP
	// Net attaches a vif served by the given network domain.
	Net *NetworkDomain
	// Storage attaches a vbd window of DiskBytes on the given storage
	// domain.
	Storage   *StorageDomain
	DiskBytes int64
	// CacheBytes sizes the guest page cache (default 64 MiB; §5.4 keeps it
	// below the dataset).
	CacheBytes int64
	// Profile overrides the default Ubuntu guest profile.
	Profile *guestos.Profile
	Seed    uint64
	// NetQueues / BlkQueues request multi-queue PV transports; the
	// handshakes negotiate down to what the backend advertises (one queue
	// per driver-domain vCPU). 0 means single-queue.
	NetQueues int
	BlkQueues int
	// VCPUs overrides the profile's vCPU count (sharded rigs give the guest
	// one vCPU per queue plus one for the stack).
	VCPUs int
	// Fleet marks the guest as one tenant of a fleet-mode network domain
	// (NetworkDomainConfig.Fleet): its single-queue vif is pinned to the
	// cluster shard of service lane FleetLane, and the lane hint is
	// published in the device's backend directory so the driver's
	// assignment matches the pinning.
	Fleet     bool
	FleetLane int
}

// Guest is a DomU with its stack, frontends, and (optionally) a mounted
// filesystem.
type Guest struct {
	Dom     *xen.Domain
	Profile *guestos.Profile
	Stack   *netstack.Stack
	Net     *netfront.Device
	Disk    *blkfront.Device
	Pool    *bufpool.Pool
	FS      *fsim.FS

	devID    int
	netDevID int
	// fleet tenancy survives reattach: a replugged vif must land back on
	// the same service lane (and cluster shard) it was pinned to.
	fleet     bool
	fleetLane int
}

// Ready reports whether all attached frontends are connected.
func (g *Guest) Ready() bool {
	if g.Net != nil && !g.Net.Ready() {
		return false
	}
	if g.Disk != nil && !g.Disk.Ready() {
		return false
	}
	return true
}

// CreateGuest builds a DomU and attaches the requested PV devices. The
// caller drives the engine (RunReady) until Guest.Ready.
func (s *System) CreateGuest(cfg GuestConfig) (*Guest, error) {
	profile := cfg.Profile
	if profile == nil {
		profile = guestos.UbuntuGuest()
	}
	vcpus := profile.VCPUs
	if cfg.VCPUs > 0 {
		vcpus = cfg.VCPUs
	} else if s.Cluster != nil && cfg.NetQueues > 1 {
		// Sharded: vCPUs 0..Q-1 are pinned one-per-queue; the stack keeps
		// the profile's own width on the rest.
		vcpus = profile.VCPUs + cfg.NetQueues
	} else if s.Cluster != nil && cfg.Fleet {
		vcpus = profile.VCPUs + 1 // vCPU 0 pinned to the lane's shard
	}
	dom := s.HV.CreateDomain(xen.DomainConfig{
		Name: cfg.Name, VCPUs: vcpus,
		MemBytes: profile.MemBytes, IRQLatency: profile.IRQLatency,
	})
	g := &Guest{Dom: dom, Profile: profile, fleet: cfg.Fleet, fleetLane: cfg.FleetLane}

	if cfg.Net != nil {
		mac := netpkt.XenMAC(uint16(dom.ID), 0)
		backExtra := map[string]string{xenstore.KeyBridge: "xenbr0"}
		if cfg.Fleet {
			backExtra[xenstore.KeyTenantLane] = fmt.Sprintf("%d", cfg.FleetLane)
		}
		s.Bus.AddDevice(xenbus.DeviceSpec{
			Type: xenstore.DevVif, FrontDom: xenbus.DomID(dom.ID),
			BackDom: xenbus.DomID(cfg.Net.Dom.ID), DevID: 0,
			FrontExtra: map[string]string{xenstore.KeyMac: mac.String()},
			BackExtra:  backExtra,
		})
		var netShards []*sim.Engine
		stackCPUs := dom.CPUs
		if qs := s.QueueShards(); qs != nil && cfg.NetQueues > 1 {
			netShards = qs
			// vCPUs 0..Q-1 are pinned per queue; the stack gets the rest.
			stackCPUs = dom.CPUs.Slice(cfg.NetQueues, dom.CPUs.Len())
		} else if qs != nil && cfg.Fleet {
			// Fleet tenant: the single queue lives on its service lane's
			// shard so ring events never cross shards mid-window.
			netShards = []*sim.Engine{qs[cfg.FleetLane%len(qs)]}
			stackCPUs = dom.CPUs.Slice(1, dom.CPUs.Len())
		}
		g.Net = netfront.New(s.Eng, netfront.Config{
			Dom: dom, Bus: s.Bus, Registry: s.NetReg, DevID: 0,
			BackDom: cfg.Net.Dom.ID, MAC: mac, Pool: s.Pool,
			Queues: cfg.NetQueues, HashSeed: cfg.Seed ^ s.seed,
			Shards: netShards,
		})
		stackCosts := netstack.LinuxGuestCosts()
		if profile.Family == guestos.FamilyNetBSD {
			stackCosts = netstack.RumprunCosts()
		}
		g.Stack = netstack.New(s.Eng, netstack.Config{
			Name: cfg.Name, CPUs: stackCPUs, Iface: g.Net,
			IP: cfg.IP, Costs: stackCosts, Seed: cfg.Seed ^ s.seed,
			Pool: s.Pool,
		})
	}

	if cfg.Storage != nil {
		if cfg.DiskBytes <= 0 {
			return nil, fmt.Errorf("core: guest %s: storage without DiskBytes", cfg.Name)
		}
		sectors := cfg.DiskBytes / blkif.SectorSize
		base := s.nextVbdBase
		if (base+sectors)*blkif.SectorSize > cfg.Storage.Device.CapacitySectors()*blkif.SectorSize {
			return nil, fmt.Errorf("core: nvme device exhausted")
		}
		s.nextVbdBase = base + sectors
		devid := 51712 // xvda
		g.devID = devid
		s.Bus.AddDevice(xenbus.DeviceSpec{
			Type: xenstore.DevVbd, FrontDom: xenbus.DomID(dom.ID),
			BackDom: xenbus.DomID(cfg.Storage.Dom.ID), DevID: devid,
			BackExtra: map[string]string{"params": fmt.Sprintf("%d:%d", base, sectors)},
		})
		cache := cfg.CacheBytes
		if cache == 0 {
			cache = 64 << 20
		}
		// The cache and filesystem run on shard 0; skip guest vCPUs that a
		// sharded vif pinned to queue shards.
		blkCPUs := dom.CPUs
		if s.Cluster != nil && cfg.Net != nil {
			if cfg.NetQueues > 1 {
				blkCPUs = dom.CPUs.Slice(cfg.NetQueues, dom.CPUs.Len())
			} else if cfg.Fleet {
				blkCPUs = dom.CPUs.Slice(1, dom.CPUs.Len())
			}
		}
		// The filesystem mounts once the vbd handshake reports the disk
		// size (blkfront learns its sector count from the backend).
		g.Disk = blkfront.New(s.Eng, blkfront.Config{
			Dom: dom, Bus: s.Bus, Registry: s.BlkReg, DevID: devid,
			BackDom: cfg.Storage.Dom.ID, Pool: s.BlkPool,
			Queues: cfg.BlkQueues,
			OnReady: func() {
				g.Pool = bufpool.New(s.Eng, g.Disk, bufpool.Config{
					CapacityBytes: cache,
					CPUs:          blkCPUs,
					HitCost:       400 * sim.Nanosecond,
					PerKBCost:     45 * sim.Nanosecond,
				})
				g.FS = fsim.New(s.Eng, g.Pool, blkCPUs, fsim.DefaultCosts())
			},
		})
	}
	return g, nil
}

// CloseNet detaches the guest's vif (frontend-initiated close).
func (g *Guest) CloseNet(s *System) {
	if g.Net == nil {
		return
	}
	fp := xenbus.FrontendPath(xenbus.DomID(g.Dom.ID), xenstore.DevVif, g.netDevID)
	_ = s.Bus.SwitchState(fp, xenbus.StateClosed)
}

// ReattachNet replugs the guest's network onto a (new) driver domain —
// the recovery path after a driver domain crash + restart (§5.2 motivates
// fast boots with exactly this scenario). The stack keeps its address and
// sockets; only the vif underneath changes.
func (g *Guest) ReattachNet(s *System, nd *NetworkDomain) error {
	if g.Stack == nil {
		return fmt.Errorf("core: guest %s has no network stack", g.Dom.Name)
	}
	g.CloseNet(s)
	g.netDevID++
	mac := netpkt.XenMAC(uint16(g.Dom.ID), byte(g.netDevID))
	backExtra := map[string]string{xenstore.KeyBridge: "xenbr0"}
	if g.fleet {
		// Republish the lane hint so the driver assigns the replugged vif
		// to the tenant's original service lane, not the round-robin cursor.
		backExtra[xenstore.KeyTenantLane] = fmt.Sprintf("%d", g.fleetLane)
	}
	s.Bus.AddDevice(xenbus.DeviceSpec{
		Type: xenstore.DevVif, FrontDom: xenbus.DomID(g.Dom.ID),
		BackDom: xenbus.DomID(nd.Dom.ID), DevID: g.netDevID,
		FrontExtra: map[string]string{xenstore.KeyMac: mac.String()},
		BackExtra:  backExtra,
	})
	var netShards []*sim.Engine
	if qs := s.QueueShards(); qs != nil && g.fleet {
		// Fleet tenant: keep the single queue on its lane's shard (see
		// CreateGuest) so ring events never cross shards mid-window.
		netShards = []*sim.Engine{qs[g.fleetLane%len(qs)]}
	}
	g.Net = netfront.New(s.Eng, netfront.Config{
		Dom: g.Dom, Bus: s.Bus, Registry: s.NetReg, DevID: g.netDevID,
		BackDom: nd.Dom.ID, MAC: mac, Pool: s.Pool,
		Shards: netShards,
	})
	g.Stack.SetIface(g.Net)
	return nil
}

// DaemonVM is a unikernelized daemon service VM (§5.5): a Kite guest
// running one daemon — here the OpenDHCP port.
type DaemonVM struct {
	Guest  *Guest
	Server *apps.DHCPServer
}

// CreateDHCPDaemonVM builds the rumprun DHCP service VM on a network
// domain's bridge, leasing poolStart..poolStart+poolSize-1.
func (s *System) CreateDHCPDaemonVM(nd *NetworkDomain, ip netpkt.IP,
	poolStart netpkt.IP, poolSize int) (*DaemonVM, error) {

	g, err := s.CreateGuest(GuestConfig{
		Name: "dhcp-vm", IP: ip, Net: nd,
		Profile: guestos.KiteDHCPDomain(), Seed: 0xd4c9,
	})
	if err != nil {
		return nil, err
	}
	srv, err := apps.NewDHCPServer(g.Stack, poolStart, poolSize)
	if err != nil {
		return nil, err
	}
	return &DaemonVM{Guest: g, Server: srv}, nil
}
