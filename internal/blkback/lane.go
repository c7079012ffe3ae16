package blkback

import (
	"kite/internal/lane"
	"kite/internal/sim"
	"kite/internal/xen"
)

// A ServiceLane is the fleet-mode execution unit of the storage backend: a
// lane.Lane (one DRR request worker on one pinned vCPU) whose members are
// the single-queue vbds of many tenant guests. A member's round drains its
// ring against the request deficit; responses the round produces
// synchronously (parse errors) are published once per member by the
// end-of-round flush instead of scheduling one publication event per
// respond call.
type ServiceLane struct {
	*lane.Lane[*ioQueue]
	cpu *sim.CPU
	sq  int // the lane vCPU's NVMe submission queue
}

// laneReqQuantum is the per-tenant request allotment per round: several
// ring bursts, so a round moves useful work per tenant; fairness does not
// depend on the exact value.
const laneReqQuantum = 32

// NewServiceLane creates fleet lane id for dom: worker pinned to the
// vCPU with index cpuIdx (which is also the lane's NVMe submission
// queue), doorbells demuxed at the costs' wake latency.
func NewServiceLane(id int, dom *xen.Domain, eng *sim.Engine, cpuIdx int, costs Costs) *ServiceLane {
	// Block lane workers currently share the driver shard (request threads
	// drain same-engine rings), so this declaration is a no-op today; if a
	// layout ever pins lanes onto their own cluster shards, the worker wake
	// latency is the conservative cross-shard edge bound, mirroring
	// netback's queue<->bridge declaration.
	sim.DeclareLink(dom.CPUs.CPU(cpuIdx%dom.CPUs.Len()).Engine(), eng, costs.WakeLatency)
	l := &ServiceLane{cpu: dom.CPUs.CPU(cpuIdx), sq: cpuIdx}
	l.Lane = lane.New[*ioQueue](id, dom, eng, l.cpu, "blkback", costs.WakeLatency, laneReqQuantum)
	return l
}
