package xen

import (
	"testing"

	"kite/internal/sim"
)

// TestUnpinnedUpcallIgnoresShardPinnedVCPU raises an unpinned port whose
// domain's only vCPU is pinned to another cluster shard, and charges that
// vCPU far ahead inside the same window. The raise runs on the hypervisor
// engine and may not read the other shard's vCPU state, so the upcall lands
// one IRQ latency after the raise at any worker count — never behind the
// pinned vCPU's backlog.
func TestUnpinnedUpcallIgnoresShardPinnedVCPU(t *testing.T) {
	const (
		irq     = 3 * sim.Microsecond
		raiseAt = sim.Microsecond
	)
	for _, workers := range []int{1, 2} {
		c := sim.NewCluster(2, 10*sim.Microsecond, 1)
		c.SetWorkers(workers)
		// The hypervisor runs on shard 1; the guest vCPU is pinned to shard 0,
		// which a serial window runs first, so its charge is already made
		// when the raise reads the pool.
		hv := New(c.Shard(1))
		dom0 := hv.CreateDomain(DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 8 << 20, Privileged: true})
		du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20, IRQLatency: irq})
		vcpu := du.CPUs.CPU(0)
		vcpu.SetEngine(c.Shard(0))

		unbound := du.AllocUnbound(dom0.ID)
		lport, err := dom0.BindInterdomain(du.ID, unbound)
		if err != nil {
			t.Fatal(err)
		}
		var deliveredAt sim.Time = -1
		du.SetHandler(unbound, func() { deliveredAt = c.Shard(1).Now() })

		c.Shard(0).Schedule(0, func() { vcpu.Charge(sim.Millisecond) })
		c.Shard(1).Schedule(raiseAt, func() { dom0.Notify(lport) })
		c.Run()
		c.SetWorkers(1)

		if want := raiseAt + irq; deliveredAt != want {
			t.Errorf("workers=%d: upcall at %v, want %v", workers, deliveredAt, want)
		}
	}
}
