package netback

import (
	"kite/internal/bridge"
	"kite/internal/lane"
	"kite/internal/sim"
	"kite/internal/xen"
)

// A ServiceLane is the fleet-mode execution unit of the netback driver: a
// lane.Lane (one DRR worker on one pinned vCPU and cluster shard) whose
// members are the single-queue VIFs of many tenant guests. A member's
// round serves its Tx ring and then its Rx backlog against the byte
// deficit, and its end-of-round flush raises the tenant's completion
// doorbell once however many drains owed one.
type ServiceLane struct {
	*lane.Lane[*vifQueue]
	eng *sim.Engine // the lane's cluster shard
	cpu *sim.CPU    // the backend worker vCPU
	// brLane is the lane's pinned bridge forwarding lane. All members
	// charge the lane vCPU in execution order, so their stamped bridge
	// arrival times are monotone — the single-producer contract
	// bridge.Lane.InputAt requires holds across tenants.
	brLane *bridge.Lane
}

// laneQuantum is the per-tenant byte allotment per DRR round: several
// MTUs, so a round moves a useful burst per tenant; fairness does not
// depend on the exact value.
const laneQuantum = 16 << 10

// NewServiceLane creates fleet lane id for dom: worker pinned to cpu on
// shard, forwarding on fwdCPU, doorbells demuxed at the costs' wake
// latency.
func NewServiceLane(id int, dom *xen.Domain, shard *sim.Engine, cpu *sim.CPU,
	br *bridge.Bridge, fwdCPU *sim.CPU, costs Costs) *ServiceLane {

	cpu.SetEngine(shard)
	l := &ServiceLane{eng: shard, cpu: cpu, brLane: br.NewLane(fwdCPU)}
	l.Lane = lane.New[*vifQueue](id, dom, shard, cpu, "netback", costs.WakeLatency, laneQuantum)
	return l
}

// Drain is the queue's DRR turn: the Tx ring first, then the Rx backlog
// with whatever deficit Tx left. Reached from the lane's //kite:hotpath
// round through the lane.Member constraint.
func (q *vifQueue) Drain(budget int) (used int, more bool) {
	used, more = q.drainTxBudget(budget)
	rx := budget - used
	if rx < 0 {
		rx = 0
	}
	rxUsed, rxMore := q.drainRxBudget(rx)
	return used + rxUsed, more || rxMore
}

// Flush raises the completion doorbell the round's drains owed the
// frontend (notifyFront).
func (q *vifQueue) Flush() { q.v.dom.Notify(q.port) }
