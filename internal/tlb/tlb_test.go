package tlb

import (
	"testing"

	"hawkeye/internal/sim"
)

func TestSmallWorkingSetHitsL1(t *testing.T) {
	tl := New(HaswellEP())
	// 32 pages fit in the 64-entry L1; only cold misses are acceptable.
	for pass := 0; pass < 100; pass++ {
		for p := int64(0); p < 32; p++ {
			tl.Access(1, p, false)
		}
	}
	if tl.MissRate() > 0.05 {
		t.Fatalf("miss rate %.3f for tiny working set", tl.MissRate())
	}
}

func TestLargeWorkingSetMisses(t *testing.T) {
	tl := New(HaswellEP())
	r := sim.NewRand(3)
	// 100k random pages over 10M-page footprint cannot be cached.
	for i := 0; i < 100000; i++ {
		tl.Access(1, r.Int63n(10<<20), false)
	}
	if tl.MissRate() < 0.9 {
		t.Fatalf("miss rate %.3f for huge random working set, want ≈ 1", tl.MissRate())
	}
}

func TestHugePagesExtendReach(t *testing.T) {
	r := sim.NewRand(4)
	// Footprint: 1 GB = 256 huge regions vs 262144 base pages.
	base := New(HaswellEP())
	huge := New(HaswellEP())
	for i := 0; i < 200000; i++ {
		vpn := r.Int63n(256 * PagesPerRegion)
		base.Access(1, vpn, false)
		huge.Access(1, vpn/PagesPerRegion, true)
	}
	if base.MissRate() < 0.5 {
		t.Fatalf("base miss rate %.3f, want high", base.MissRate())
	}
	// 256 regions fit in the 1024-entry L2 after the 8-entry L1 misses.
	if huge.MissRate() > 0.05 {
		t.Fatalf("huge miss rate %.3f, want ≈ 0", huge.MissRate())
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	tl := New(HaswellEP())
	// 512 pages overflow L1 (64) but fit L2 (1024).
	for pass := 0; pass < 20; pass++ {
		for p := int64(0); p < 512; p++ {
			tl.Access(1, p, false)
		}
	}
	if tl.Misses > 600 {
		t.Fatalf("misses = %d, L2 not effective", tl.Misses)
	}
	if tl.L2Hits == 0 {
		t.Fatal("no L2 hits recorded")
	}
}

func TestProcessesDoNotAlias(t *testing.T) {
	tl := New(HaswellEP())
	tl.Access(1, 7, false)
	tl.Lookups, tl.Misses = 0, 0
	tl.Access(2, 7, false)
	if tl.Misses != 1 {
		t.Fatal("different PIDs must not share entries")
	}
}

func TestInvalidateRegion(t *testing.T) {
	tl := New(HaswellEP())
	tl.Access(1, 512+5, false) // region 1
	tl.Access(1, 3, false)     // region 0
	tl.Access(1, 1, true)      // huge entry for region 1
	tl.InvalidateRegion(1, 1)
	tl.Lookups, tl.Misses = 0, 0
	tl.Access(1, 512+5, false)
	tl.Access(1, 1, true)
	if tl.Misses != 2 {
		t.Fatalf("region entries survived invalidation: misses=%d", tl.Misses)
	}
	tl.Lookups, tl.Misses = 0, 0
	tl.Access(1, 3, false)
	if tl.Misses != 0 {
		t.Fatal("unrelated region was invalidated")
	}
}

func TestInvalidateProcess(t *testing.T) {
	tl := New(HaswellEP())
	tl.Access(1, 7, false)
	tl.Access(2, 9, false)
	tl.InvalidateProcess(1)
	tl.Lookups, tl.Misses = 0, 0
	tl.Access(1, 7, false)
	tl.Access(2, 9, false)
	if tl.Misses != 1 {
		t.Fatalf("misses = %d, want 1", tl.Misses)
	}
}

func TestWalkCyclesModel(t *testing.T) {
	tl := New(HaswellEP())
	seqBase := tl.WalkCycles(0, false, false)
	rndBase := tl.WalkCycles(1, false, false)
	if seqBase >= rndBase {
		t.Fatal("sequential walks must be cheaper than random")
	}
	if got := tl.WalkCycles(1, true, false); got >= rndBase {
		t.Fatal("huge walks must be discounted")
	}
	if got := tl.WalkCycles(1, false, true); got < 3*rndBase {
		t.Fatalf("nested walks should be ≈3.5× (%v vs %v)", got, rndBase)
	}
	// Clamping.
	if tl.WalkCycles(-1, false, false) != seqBase || tl.WalkCycles(2, false, false) != rndBase {
		t.Fatal("locality not clamped")
	}
}

func TestPMUOverhead(t *testing.T) {
	var p PMU
	if p.Overhead() != 0 {
		t.Fatal("empty PMU overhead not 0")
	}
	p.Add(30, 100)
	if got := p.Overhead(); got != 0.3 {
		t.Fatalf("overhead = %v, want 0.3", got)
	}
	p.EndWindow()
	p.Add(5, 100)
	p.EndWindow()
	if got := p.RecentOverhead(); got != 0.05 {
		t.Fatalf("recent overhead = %v, want 0.05", got)
	}
	if got := p.Overhead(); got != 35.0/200.0 {
		t.Fatalf("cumulative = %v", got)
	}
}

func TestPMURecentBeforeWindow(t *testing.T) {
	var p PMU
	p.Add(10, 100)
	if p.RecentOverhead() != 0.1 {
		t.Fatal("RecentOverhead should fall back to cumulative")
	}
}

func TestSetAssocDegenerate(t *testing.T) {
	// Fully-associative tiny array must still work.
	s := newSetAssoc(8, 8)
	for i := int64(0); i < 16; i++ {
		s.insert(1, i, true)
	}
	hits := 0
	for i := int64(8); i < 16; i++ {
		if s.lookup(1, i, true) {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("LRU retention wrong: %d hits, want 8", hits)
	}
}

// TestInvalidateOwnerCompare checks the flush loops' one-word owner match
// against decoding the valid bit and pid field of each key, including the
// extreme in-range pids and out-of-range ones that must flush nothing.
func TestInvalidateOwnerCompare(t *testing.T) {
	pids := []int32{0, 1, 2, 1<<20 - 1}
	fill := func() *setAssoc {
		s := newSetAssoc(256, 8)
		r := sim.NewRand(5)
		for i := 0; i < 400; i++ {
			s.insert(pids[r.Intn(len(pids))], int64(r.Intn(4096)), r.Intn(4) == 0)
		}
		return s
	}
	owned := func(k entryKey, pid int32) bool {
		return k.valid() && int32(k>>43&(1<<20-1)) == pid
	}
	for _, pid := range append(pids, -1, 1<<20, 1<<20+1) {
		s, ref := fill(), fill()
		s.invalidatePID(pid)
		for i, k := range ref.keys {
			if want := !owned(k, pid); (s.keys[i] == k) != want {
				t.Fatalf("invalidatePID(%d): slot %d key %#x kept=%v, want %v", pid, i, k, s.keys[i] == k, want)
			}
		}
		s = fill()
		const lo, hi, region = 100, 900, 3
		s.invalidateRange(pid, lo, hi, region)
		for i, k := range ref.keys {
			drop := owned(k, pid) && (k.huge() && k.page() == region || !k.huge() && k.page() >= lo && k.page() < hi)
			if (s.keys[i] == k) == drop {
				t.Fatalf("invalidateRange(%d): slot %d key %#x kept=%v, want %v", pid, i, k, s.keys[i] == k, !drop)
			}
		}
	}
}
