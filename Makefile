GO ?= go

.PHONY: verify build test race vet lint race-stress zeroalloc perfbench bench

# verify is the tree-must-be-green gate: vet, build everything, kitelint
# (the repo's own invariant analyzers), the zero-allocation forward-path
# assertion (which the race detector's instrumentation would distort, so
# it runs in a normal build), the benchmark harness check, then the full
# test suite under the race detector (which also exercises the parallel
# experiment runner's determinism tests).
verify: vet build lint zeroalloc perfbench race

vet:
	$(GO) vet ./...

# lint runs the kitelint analyzer suite (hotpath, poolref, simdet,
# xskeys, evblock, shardsafe, relpure, ringlink, atomicscope) over the
# whole module; any finding fails the build. See DESIGN.md §11 and §15
# for the invariants each analyzer proves.
lint:
	$(GO) run ./cmd/kitelint .

# race-stress is the dynamic counterpart of the shardsafe/atomicscope
# static proof: the cluster barrier tests under the race detector at a
# starved and an oversubscribed GOMAXPROCS, repeated to vary schedules,
# plus the fleet upcall regression (echoes and block I/O in flight
# together across lane shards) at the same two levels.
race-stress:
	GOMAXPROCS=2 $(GO) test -race -count=3 ./internal/sim
	GOMAXPROCS=8 $(GO) test -race -count=3 ./internal/sim
	GOMAXPROCS=2 $(GO) test -race -count=3 -run TestFleetEchoAndBlockIOTogether ./internal/core
	GOMAXPROCS=8 $(GO) test -race -count=3 -run TestFleetEchoAndBlockIOTogether ./internal/core

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

zeroalloc:
	$(GO) test -count=1 -run 'TestForwardPathZeroAlloc|TestBlockPathZeroAlloc' ./internal/core

# perfbench vets and unit-tests the benchmark harness. _perfbench is its
# own module (kite replaced by ../), outside ./..., so no other target
# compiles it: a change to an internal API the harness calls would
# otherwise go unnoticed until the benchmark pipeline runs.
perfbench:
	cd _perfbench && GOFLAGS= GOWORK=off GOPROXY=off $(GO) vet . && GOFLAGS= GOWORK=off GOPROXY=off $(GO) test -count=1 .

# bench snapshots the forward-path pipeline benchmarks into BENCH_net.json
# (frames per second, the multi-queue simframes/sec sweep over
# -queues 1,2,4,8, the fleet sweep over -guests 16,64,256,1024, and the
# fleet bring-up sweep over -guests 64,256,1024) and
# the storage pipeline benchmarks into BENCH_blk.json (bytes per second
# plus the matching simbytes/sec sweep). Each go-test run lands in a temp
# file first: in a pipeline a benchmark failure would be swallowed by the
# pipe (make only sees the last command's status) while still truncating
# the committed snapshot. Every step removes its temp files on failure so
# an aborted run leaves no droppings in the tree. The fleet family runs a
# fixed iteration count (handshaking 1024 guests per calibration pass
# would dominate the run), is gated allocation-free at every scale, and
# must keep 1024-guest virtual per-guest cost within 1.25x the 64-guest
# figure (the O(active) flatness gate; see EXPERIMENTS.md). The bring-up
# family builds a whole fleet per iteration, so it runs three; its
# 1024-guest allocations per guest must stay within 1.25x the 64-guest
# figure (the control plane's O(changed) gate; wall time is not gated).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkForwardPath' -benchmem -count=1 ./internal/core > bench_net.tmp || { rm -f bench_net.tmp; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkFleet$$' -benchtime 50x -benchmem -count=1 ./internal/core >> bench_net.tmp || { rm -f bench_net.tmp; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkFleetBringUp' -benchtime 3x -benchmem -count=1 ./internal/core >> bench_net.tmp || { rm -f bench_net.tmp; exit 1; }
	$(GO) run ./cmd/benchjson \
		-gate-allocs 'BenchmarkFleet/guests=16,BenchmarkFleet/guests=64,BenchmarkFleet/guests=256,BenchmarkFleet/guests=1024' \
		-gate-flat 'Fleet/guests=1024:Fleet/guests=64:ns_per_guest_op@1.25,FleetBringUp/guests=1024:FleetBringUp/guests=64:allocs_per_guest@1.25' \
		< bench_net.tmp > BENCH_net.json.tmp || { rm -f bench_net.tmp BENCH_net.json.tmp; exit 1; }
	mv BENCH_net.json.tmp BENCH_net.json
	rm bench_net.tmp
	cat BENCH_net.json
	$(GO) test -run '^$$' -bench 'BenchmarkBlockPath' -benchmem -count=1 ./internal/core > bench_blk.tmp || { rm -f bench_blk.tmp; exit 1; }
	$(GO) run ./cmd/benchjson < bench_blk.tmp > BENCH_blk.json.tmp || { rm -f bench_blk.tmp BENCH_blk.json.tmp; exit 1; }
	mv BENCH_blk.json.tmp BENCH_blk.json
	rm bench_blk.tmp
	cat BENCH_blk.json
