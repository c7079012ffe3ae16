package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"kite/internal/core"
	"kite/internal/sim"
)

const (
	// blk-mixed: one guest doing raw blkfront I/O over a vbd window on the
	// paper's single-queue Kite storage domain, closed loop at blkDepth.
	blkWindow = 1 << 30
	blkDepth  = 32
	// blkOps is the fixed work of one repetition: enough completions that
	// p99.9 still has ten samples beyond it.
	blkOps     = 12000
	blkBlock   = 4096
	blkSectors = blkBlock / sectorSize
	blkSeqSpan = 64 // blocks per sequential op: 256 KiB
)

// Block content: every 512-byte sector written at generation gen holds
// its absolute sector number and gen in its first 16 bytes and a fixed
// filler after them, so a read proves it got the right sector at the
// latest generation with two word compares and one memcmp. Generation 0
// is a sector never written, which reads as zeros.
const sectorSize = 512

var (
	sectorFiller = func() []byte {
		b := make([]byte, sectorSize)
		x := uint64(0x5eed)
		for i := 16; i+8 <= len(b); i += 8 {
			x = splitmix(x)
			binary.LittleEndian.PutUint64(b[i:], x)
		}
		return b
	}()
	zeroSector = make([]byte, sectorSize)
)

// fillBlock writes the content of the 4 KiB block starting at sector
// first, at write generation gen.
func fillBlock(b []byte, first int64, gen uint32) {
	for i := 0; i < len(b); i += sectorSize {
		sec := b[i : i+sectorSize]
		if gen == 0 {
			copy(sec, zeroSector)
			continue
		}
		copy(sec, sectorFiller)
		binary.LittleEndian.PutUint64(sec[0:], uint64(first)+uint64(i/sectorSize))
		binary.LittleEndian.PutUint64(sec[8:], uint64(gen))
	}
}

// blockMatches reports whether b holds the block starting at sector first
// at generation gen.
func blockMatches(b []byte, first int64, gen uint32) bool {
	for i := 0; i < len(b); i += sectorSize {
		sec := b[i : i+sectorSize]
		if gen == 0 {
			if !bytes.Equal(sec, zeroSector) {
				return false
			}
			continue
		}
		if binary.LittleEndian.Uint64(sec[0:]) != uint64(first)+uint64(i/sectorSize) ||
			binary.LittleEndian.Uint64(sec[8:]) != uint64(gen) ||
			!bytes.Equal(sec[16:], sectorFiller[16:]) {
			return false
		}
	}
	return true
}

// blkMixedRep runs the closed-loop mixed block workload. Each of the
// blkDepth slots owns a disjoint 1/blkDepth of the window, so no two
// in-flight ops overlap and every read has exactly one right answer: the
// (block, generation) model.
func blkMixedRep(cfg config, tr *tracer) (repOut, error) {
	out := repOut{e2e: map[string]float64{}, layers: map[string]float64{}}
	t0 := time.Now()
	setupSpan := tr.begin("rep.setup", spanRef{idx: -1}, 0)
	rig, err := core.NewStorageRig(core.StorageRigConfig{
		Kind: core.KindKite, Seed: cfg.seed, DiskBytes: blkWindow,
	})
	tr.end(setupSpan)
	out.setup = time.Since(t0)
	if err != nil {
		return out, err
	}
	sys := rig.Testbed.System
	eng := sys.Eng
	disk := rig.Guest.Disk

	const regionBlocks = blkWindow / blkBlock / blkDepth
	gens := make([]uint32, blkWindow/blkBlock)
	type slot struct {
		r      rng
		cursor int // next sequential block, relative to the region
		buf    []byte
		issued sim.Time
		first  int // first block of the op in flight
		n      int // blocks in flight
		write  bool
	}
	slots := make([]slot, blkDepth)
	var (
		issued, completed, failed int
		bytes                     uint64
		lats                      []float64
		submitSpans               uint64
	)
	h := newFNV()
	runSpan := tr.begin("rep.run", spanRef{idx: -1}, 0)

	var issue func(s int)
	complete := func(s int, data []byte, err error) {
		sl := &slots[s]
		lat := eng.Now() - sl.issued
		completed++
		lats = append(lats, lat.Micros())
		h.add(uint64(s)<<48 | uint64(sl.first))
		h.add(uint64(lat))
		ok := err == nil
		if ok && !sl.write {
			for b := 0; b < sl.n; b++ {
				blk := sl.first + b
				if !blockMatches(data[b*blkBlock:(b+1)*blkBlock], int64(blk)*blkSectors, gens[blk]) {
					ok = false
					break
				}
			}
		}
		if !ok {
			failed++
		}
		bytes += uint64(sl.n * blkBlock)
		issue(s)
	}
	readDone := make([]func([]byte, error), blkDepth)
	writeDone := make([]func(error), blkDepth)
	for s := range slots {
		s := s
		slots[s].r = rng{s: cfg.seed ^ uint64(s+1)*0xb10c}
		slots[s].cursor = slots[s].r.intn(regionBlocks/blkSeqSpan) * blkSeqSpan
		slots[s].buf = make([]byte, blkSeqSpan*blkBlock)
		readDone[s] = func(data []byte, err error) { complete(s, data, err) }
		writeDone[s] = func(err error) { complete(s, nil, err) }
	}
	issue = func(s int) {
		if issued == blkOps {
			return
		}
		issued++
		sl := &slots[s]
		base := s * regionBlocks
		sl.write = sl.r.intn(10) >= 6 // 60% reads, 40% writes
		if sl.r.intn(5) == 0 {        // 20% sequential 256 KiB
			sl.first, sl.n = base+sl.cursor, blkSeqSpan
			sl.cursor = (sl.cursor + blkSeqSpan) % regionBlocks
		} else { // 80% random 4 KiB
			sl.first, sl.n = base+sl.r.intn(regionBlocks), 1
		}
		sl.issued = eng.Now()
		sector := int64(sl.first) * blkSectors
		sp := tr.begin("blkfront.submit", runSpan, submitSpans)
		submitSpans++
		if sl.write {
			for b := 0; b < sl.n; b++ {
				blk := sl.first + b
				gens[blk]++
				fillBlock(sl.buf[b*blkBlock:(b+1)*blkBlock], int64(blk)*blkSectors, gens[blk])
			}
			disk.WriteSectors(sector, sl.buf[:sl.n*blkBlock], writeDone[s])
		} else {
			disk.ReadSectors(sector, sl.n*blkBlock, readDone[s])
		}
		tr.end(sp)
	}

	settle()
	before := takeSnap(sys, nil, rig.SD)
	r0 := time.Now()
	for s := range slots {
		issue(s)
	}
	eng.Run()
	out.run = time.Since(r0)
	tr.end(runSpan)
	after := takeSnap(sys, nil, rig.SD)

	out.attempted = issued
	out.failed = failed + (issued - completed)
	sorted := sortedCopy(lats)
	out.e2e["blk_mb_per_s"] = float64(bytes) / 1e6 / out.run.Seconds()
	out.e2e["sim_blk_lat_us_p50"] = percentile(sorted, 50)
	out.e2e["sim_blk_lat_us_p999"] = percentile(sorted, tailPercentile(len(sorted), 99.9))
	out.e2e["sim_events"] = float64(after.events - before.events)
	h.add(after.events - before.events)
	out.digest = uint64(h)
	out.layers = map[string]float64{}
	blkLayers(out.layers, rig.SD, []*core.Guest{rig.Guest}, sys, before, after, uint64(completed))
	return out, nil
}
