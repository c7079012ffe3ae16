package core

import (
	"fmt"
	"testing"

	"kite/internal/netstack"
)

// TestFleetEchoAndBlockIOTogether keeps UDP echoes and block I/O in flight
// at the same time on a 64-tenant fleet (net and storage domains, 4 lanes).
// Every tenant's vCPU is pinned to a net lane's cluster shard, while its
// blkfront port is unpinned and raised from the storage domain's lanes on
// the driver shard: the upcall must be scheduled on the raising engine's
// clock, never on a lagging lane shard's, or the simulator schedules into
// the past. Run at one and two cluster workers; the outcome must match.
func TestFleetEchoAndBlockIOTogether(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2} {
		got := runEchoAndBlockIO(t, workers)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: %s, want %s (workers=1)", workers, got, want)
		}
	}
}

func runEchoAndBlockIO(t *testing.T, workers int) string {
	const guests, rounds, block = 64, 3, 4096
	rig, err := NewFleetRig(FleetConfig{
		Guests: guests, Lanes: 4, Seed: 0x5eed,
		Storage: true, DiskBytes: 4 << 20,
	})
	if err != nil {
		t.Fatalf("NewFleetRig: %v", err)
	}
	sys := rig.Testbed.System
	sys.Cluster.SetWorkers(workers)
	defer sys.Cluster.SetWorkers(1)

	const serverPort, tenantPort = 7000, 7001
	rig.Client.Stack.BindUDP(serverPort, func(p netstack.UDPPacket) {
		rig.Client.Stack.SendUDP(p.Src, p.SrcPort, serverPort, p.Data)
	})
	echoed := make([]int, guests)
	stored := make([]int, guests)
	for i, g := range rig.Guests {
		i := i
		g.Stack.BindUDP(tenantPort, func(netstack.UDPPacket) { echoed[i]++ })
	}
	payload := make([]byte, 200)
	buf := make([]byte, block)
	for r := 0; r < rounds; r++ {
		for i, g := range rig.Guests {
			i, g := i, g
			payload[0], payload[1] = byte(i), byte(r)
			g.Stack.SendUDP(rig.ClientIP, serverPort, tenantPort, payload)
			for j := range buf {
				buf[j] = byte(i*7 + r*3 + j)
			}
			sector := int64(r * block / 512)
			g.Disk.WriteSectors(sector, buf, func(err error) {
				if err != nil {
					t.Errorf("tenant %d write: %v", i, err)
					return
				}
				g.Disk.ReadSectors(sector, block, func(data []byte, err error) {
					if err != nil {
						t.Errorf("tenant %d read: %v", i, err)
						return
					}
					for j := range data {
						if data[j] != byte(i*7+r*3+j) {
							t.Errorf("tenant %d round %d: read corrupt at %d", i, r, j)
							return
						}
					}
					stored[i]++
				})
			})
		}
	}
	done := func() bool {
		for i := range echoed {
			if echoed[i] < rounds || stored[i] < rounds {
				return false
			}
		}
		return true
	}
	if !sys.RunReady(done, 50_000_000) {
		t.Fatalf("workers=%d: incomplete: echoed %v stored %v", workers, echoed, stored)
	}
	return fmt.Sprintf("now=%v events=%d", sys.Eng.Now(), sys.Eng.Processed())
}
