package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"hawkeye/internal/sim"
)

func newTestAllocator(mb Bytes) *Allocator {
	return NewAllocator(mb << 20)
}

func TestNewAllocatorSizing(t *testing.T) {
	a := newTestAllocator(64)
	if got := a.TotalPages(); got != 64<<20/PageSize {
		t.Fatalf("TotalPages = %d, want %d", got, 64<<20/PageSize)
	}
	if a.FreePages() != a.TotalPages() {
		t.Fatalf("fresh allocator not fully free")
	}
	if a.ZeroFreePages() != a.TotalPages() {
		t.Fatalf("fresh memory should be fully zeroed: %d/%d", a.ZeroFreePages(), a.TotalPages())
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newTestAllocator(16)
	blk, err := a.Alloc(HugeOrder, PreferZero, TagAnon)
	if err != nil {
		t.Fatal(err)
	}
	if !blk.Zeroed {
		t.Fatal("fresh machine should serve zeroed blocks")
	}
	if blk.Pages() != HugePages {
		t.Fatalf("block pages = %d, want %d", blk.Pages(), HugePages)
	}
	if a.FreePages() != a.TotalPages()-HugePages {
		t.Fatalf("free pages wrong after alloc")
	}
	if a.TagPages(TagAnon) != HugePages {
		t.Fatalf("tag accounting wrong: %d", a.TagPages(TagAnon))
	}
	a.Free(blk.Head, blk.Order, true)
	if a.FreePages() != a.TotalPages() {
		t.Fatalf("free pages wrong after free")
	}
	if a.ZeroFreePages() != a.TotalPages()-HugePages {
		t.Fatalf("dirty free should reduce zero pages: %d", a.ZeroFreePages())
	}
}

func TestAllocAlignment(t *testing.T) {
	a := newTestAllocator(16)
	for order := 0; order <= MaxOrder; order++ {
		blk, err := a.Alloc(order, PreferZero, TagAnon)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Head%(FrameID(1)<<order) != 0 {
			t.Fatalf("order-%d block at %d not aligned", order, blk.Head)
		}
	}
}

func TestBuddyCoalescing(t *testing.T) {
	a := newTestAllocator(16)
	total := a.FreeBlocksAtLeast(MaxOrder)
	var blocks []Block
	// Shatter all memory to order-0...
	for {
		blk, err := a.Alloc(0, PreferZero, TagAnon)
		if err != nil {
			break
		}
		blocks = append(blocks, blk)
	}
	if a.FreePages() != 0 {
		t.Fatalf("expected exhaustion, %d pages free", a.FreePages())
	}
	// ...and free everything: buddies must merge back to MaxOrder blocks.
	for _, blk := range blocks {
		a.Free(blk.Head, 0, false)
	}
	if got := a.FreeBlocksAtLeast(MaxOrder); got != total {
		t.Fatalf("after full free: %d max-order blocks, want %d", got, total)
	}
}

func TestZeroPreferenceServedFirst(t *testing.T) {
	a := newTestAllocator(16)
	// Dirty one huge block.
	blk, err := a.Alloc(HugeOrder, PreferZero, TagAnon)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(blk.Head, HugeOrder, true)
	if a.NonZeroFreePages() != HugePages {
		t.Fatalf("non-zero backlog = %d, want %d", a.NonZeroFreePages(), HugePages)
	}
	// PreferNonZero should give us back the dirty block.
	blk2, err := a.Alloc(HugeOrder, PreferNonZero, TagAnon)
	if err != nil {
		t.Fatal(err)
	}
	if blk2.Zeroed {
		t.Fatal("PreferNonZero served a zeroed block while dirty memory existed")
	}
	a.Free(blk2.Head, HugeOrder, true)
	// PreferZero should avoid it.
	blk3, err := a.Alloc(HugeOrder, PreferZero, TagAnon)
	if err != nil {
		t.Fatal(err)
	}
	if !blk3.Zeroed {
		t.Fatal("PreferZero served a dirty block while zeroed memory existed")
	}
}

func TestPreZeroCycle(t *testing.T) {
	a := newTestAllocator(16)
	blk, _ := a.Alloc(HugeOrder, PreferZero, TagAnon)
	a.Free(blk.Head, HugeOrder, true)
	head, order, ok := a.PopNonZeroBlockUpTo(HugeOrder)
	if !ok {
		t.Fatal("no non-zero block found")
	}
	if order > HugeOrder {
		t.Fatalf("block order %d exceeds cap", order)
	}
	a.InsertZeroBlock(head, order)
	for {
		h, o, more := a.PopNonZeroBlockUpTo(HugeOrder)
		if !more {
			break
		}
		a.InsertZeroBlock(h, o)
	}
	if a.NonZeroFreePages() != 0 {
		t.Fatalf("backlog = %d after full pre-zero", a.NonZeroFreePages())
	}
	if a.ZeroFreePages() != a.TotalPages() {
		t.Fatalf("zero pages = %d, want all", a.ZeroFreePages())
	}
}

func TestPopNonZeroPrefersLargest(t *testing.T) {
	a := newTestAllocator(16)
	small, _ := a.Alloc(0, PreferZero, TagAnon)
	big, _ := a.Alloc(HugeOrder, PreferZero, TagAnon)
	a.Free(small.Head, 0, true)
	a.Free(big.Head, HugeOrder, true)
	// Dirty blocks coalesce with their zero buddies; the non-zero list must
	// surface a block at least huge-page sized, never the lone small one.
	_, order, ok := a.PopNonZeroBlock()
	if !ok || order < HugeOrder {
		t.Fatalf("got order %d (ok=%v), want >= %d", order, ok, HugeOrder)
	}
}

func TestOOMAfterExhaustion(t *testing.T) {
	a := newTestAllocator(16)
	for {
		if _, err := a.Alloc(MaxOrder, PreferZero, TagAnon); err != nil {
			break
		}
	}
	_, err := a.Alloc(0, PreferZero, TagAnon)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestFileReclaimUnderPressure(t *testing.T) {
	a := newTestAllocator(16)
	// Fill everything with page cache.
	for {
		if _, err := a.Alloc(0, PreferNonZero, TagFile); err != nil {
			break
		}
	}
	if a.FreePages() != 0 {
		t.Fatal("expected full page cache")
	}
	// An anonymous allocation must succeed by reclaiming file pages.
	blk, err := a.Alloc(HugeOrder, PreferZero, TagAnon)
	if err != nil {
		t.Fatalf("alloc with reclaimable cache failed: %v", err)
	}
	if a.ReclaimedPages < HugePages {
		t.Fatalf("reclaimed %d pages, want >= %d", a.ReclaimedPages, HugePages)
	}
	if blk.Zeroed {
		t.Fatal("reclaimed cache pages cannot be pre-zeroed")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newTestAllocator(16)
	blk, _ := a.Alloc(0, PreferZero, TagAnon)
	a.Free(blk.Head, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(blk.Head, 0, false)
}

func TestFMFI(t *testing.T) {
	a := newTestAllocator(16)
	if got := a.FMFI(HugeOrder); got != 0 {
		t.Fatalf("unfragmented FMFI = %v, want 0", got)
	}
	// Fragment: allocate everything as base pages, then free every other
	// page so no huge block can form but plenty of memory is free.
	var blocks []Block
	for {
		blk, err := a.Alloc(0, PreferZero, TagAnon)
		if err != nil {
			break
		}
		blocks = append(blocks, blk)
	}
	for i, blk := range blocks {
		if i%2 == 0 {
			a.Free(blk.Head, 0, true)
		}
	}
	got := a.FMFI(HugeOrder)
	if got < 0.9 {
		t.Fatalf("checkerboard FMFI = %v, want > 0.9", got)
	}
	if f := a.ContiguityFraction(HugeOrder); f != 0 {
		t.Fatalf("checkerboard contiguity = %v, want 0", f)
	}
}

// moverFunc adapts a function to the Mover interface for tests.
type moverFunc func(old, new FrameID) bool

func (m moverFunc) MoveFrame(old, new FrameID) bool { return m(old, new) }

func TestCompactionRebuildsHugeBlocks(t *testing.T) {
	a := newTestAllocator(16)
	moves := 0
	a.SetMover(moverFunc(func(old, new FrameID) bool { moves++; return true }))
	// Allocate all memory as base pages, then free 7 of every 8 pages: a
	// sparse allocation pattern that blocks huge pages but is cheap to
	// compact.
	var blocks []Block
	for {
		blk, err := a.Alloc(0, PreferZero, TagAnon)
		if err != nil {
			break
		}
		blocks = append(blocks, blk)
	}
	for i, blk := range blocks {
		if i%8 != 0 {
			a.Free(blk.Head, 0, true)
		}
	}
	if a.FreeBlocksAtLeast(HugeOrder) != 0 {
		t.Fatal("setup: expected no huge blocks")
	}
	// Compaction is incremental (as khugepaged invokes it); iterate passes
	// until the target is met or progress stops.
	built := 0
	for pass := 0; pass < 8 && built < 4; pass++ {
		res := a.Compact(4 - built)
		if res.BlocksBuilt == 0 {
			break
		}
		built += res.BlocksBuilt
	}
	if built < 4 {
		t.Fatalf("built %d blocks across passes, want >= 4", built)
	}
	if a.HugePageCapacity() < 4 {
		t.Fatalf("huge capacity after compaction = %d, want >= 4", a.HugePageCapacity())
	}
	if moves == 0 {
		t.Fatal("compaction reported success without moving frames")
	}
}

func TestCompactionSkipsPinned(t *testing.T) {
	a := newTestAllocator(16)
	a.SetMover(moverFunc(func(old, new FrameID) bool { return false }))
	var blocks []Block
	for {
		blk, err := a.Alloc(0, PreferZero, TagAnon)
		if err != nil {
			break
		}
		blocks = append(blocks, blk)
	}
	for i, blk := range blocks {
		if i%8 != 0 {
			a.Free(blk.Head, 0, true)
		}
	}
	res := a.Compact(4)
	if res.BlocksBuilt != 0 {
		t.Fatalf("built %d blocks with pinned pages, want 0", res.BlocksBuilt)
	}
	if a.FailedMoves == 0 {
		t.Fatal("expected failed moves recorded")
	}
}

// TestInvariantFreeAccounting drives a random alloc/free workload and checks
// allocator invariants throughout.
func TestInvariantFreeAccounting(t *testing.T) {
	a := newTestAllocator(32)
	r := sim.NewRand(99)
	type held struct {
		blk Block
	}
	var live []held
	for step := 0; step < 20000; step++ {
		if r.Float64() < 0.55 || len(live) == 0 {
			order := r.Intn(HugeOrder + 1)
			pref := PreferZero
			if r.Float64() < 0.5 {
				pref = PreferNonZero
			}
			blk, err := a.Alloc(order, pref, TagAnon)
			if err != nil {
				continue
			}
			live = append(live, held{blk})
		} else {
			i := r.Intn(len(live))
			h := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(h.blk.Head, h.blk.Order, r.Float64() < 0.7)
		}
		if a.FreePages() < 0 || a.FreePages() > a.TotalPages() {
			t.Fatalf("step %d: free pages out of range: %d", step, a.FreePages())
		}
		if a.ZeroFreePages() < 0 || a.ZeroFreePages() > a.FreePages() {
			t.Fatalf("step %d: zero pages %d out of range (free %d)", step, a.ZeroFreePages(), a.FreePages())
		}
		if step%500 == 0 {
			if msg := a.CheckConsistency(); msg != "" {
				t.Fatalf("step %d: %s", step, msg)
			}
		}
	}
	// Drain and verify full recovery.
	for _, h := range live {
		a.Free(h.blk.Head, h.blk.Order, false)
	}
	if a.FreePages() != a.TotalPages() {
		t.Fatalf("leak: %d free of %d", a.FreePages(), a.TotalPages())
	}
	if a.TagPages(TagAnon) != 0 {
		t.Fatalf("tag accounting leak: %d", a.TagPages(TagAnon))
	}
	if msg := a.CheckConsistency(); msg != "" {
		t.Fatal(msg)
	}
}

// Property: freeing in any order restores all max-order blocks.
func TestPropertyFreeOrderIndependence(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewAllocator(8 << 20)
		r := sim.NewRand(uint64(seed))
		var blocks []Block
		for {
			blk, err := a.Alloc(r.Intn(4), PreferZero, TagAnon)
			if err != nil {
				break
			}
			blocks = append(blocks, blk)
		}
		r.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		for _, blk := range blocks {
			a.Free(blk.Head, blk.Order, true)
		}
		return a.FreePages() == a.TotalPages() &&
			Pages(a.FreeBlocksAtLeast(MaxOrder)) == a.TotalPages()>>MaxOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesHelpers(t *testing.T) {
	if Pages(2).Bytes() != 8192 {
		t.Fatal("Pages.Bytes wrong")
	}
	if Bytes(1).Pages() != 1 || Bytes(PageSize).Pages() != 1 || Bytes(PageSize+1).Pages() != 2 {
		t.Fatal("Bytes.Pages wrong")
	}
	if (Block{Order: HugeOrder}).Pages() != HugePages {
		t.Fatal("Block.Pages wrong")
	}
	if Regions(3).Pages() != 3*HugePages || Regions(3).Bytes() != 3*HugeSize {
		t.Fatal("Regions helpers wrong")
	}
	if Pages(HugePages+1).Regions() != 1 || Bytes(HugeSize+1).Regions() != 2 {
		t.Fatal("Regions rounding wrong")
	}
}

func TestTagString(t *testing.T) {
	for tag, want := range map[Tag]string{TagFree: "free", TagAnon: "anon", TagFile: "file", TagKernel: "kernel", TagZero: "zero", Tag(9): "tag(9)"} {
		if got := tag.String(); got != want {
			t.Errorf("Tag(%d).String() = %q, want %q", tag, got, want)
		}
	}
}

// TestDrainAllFileMatchesLoop checks that the bulk drain emits exactly the
// frame sequence the generic page-by-page allocation loop produces, and
// leaves the allocator in the same observable state — across allocators
// pre-churned with identical random alloc/free histories.
func TestDrainAllFileMatchesLoop(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		churn := func(a *Allocator) []Block {
			r := sim.NewRand(uint64(seed))
			var live []Block
			for i := 0; i < 400; i++ {
				if r.Float64() < 0.6 {
					order := r.Intn(HugeOrder + 1)
					pref := PreferZero
					if r.Float64() < 0.5 {
						pref = PreferNonZero
					}
					if blk, ok := a.AllocOpportunistic(order, pref, TagAnon); ok {
						if r.Float64() < 0.3 {
							a.MarkDirty(blk.Head)
						}
						live = append(live, blk)
					}
				} else if len(live) > 0 {
					i := r.Intn(len(live))
					blk := live[i]
					a.Free(blk.Head, blk.Order, r.Float64() < 0.5)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			return live
		}
		byLoop := NewAllocator(64 << 20)
		byBulk := NewAllocator(64 << 20)
		churn(byLoop)
		churn(byBulk)

		var want []FrameID
		for {
			blk, err := byLoop.Alloc(0, PreferNonZero, TagFile)
			if err != nil {
				break
			}
			want = append(want, blk.Head)
		}
		got := byBulk.DrainAllFile()

		if len(got) != len(want) {
			t.Fatalf("seed %d: drained %d frames, loop allocated %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: emission %d: bulk %d, loop %d", seed, i, got[i], want[i])
			}
		}
		if msg := byBulk.CheckConsistency(); msg != "" {
			t.Fatalf("seed %d: bulk drain left inconsistent allocator: %s", seed, msg)
		}
		if byBulk.FreePages() != byLoop.FreePages() || byBulk.ZeroFreePages() != byLoop.ZeroFreePages() ||
			byBulk.TagPages(TagFile) != byLoop.TagPages(TagFile) || byBulk.PeakAllocated() != byLoop.PeakAllocated() {
			t.Fatalf("seed %d: counter mismatch after drain", seed)
		}
		for f := FrameID(0); f < FrameID(byBulk.TotalPages()); f++ {
			if byBulk.FrameTag(f) != byLoop.FrameTag(f) || byBulk.FrameZeroed(f) != byLoop.FrameZeroed(f) {
				t.Fatalf("seed %d: frame %d state mismatch: tag %v/%v zero %v/%v",
					seed, f, byBulk.FrameTag(f), byLoop.FrameTag(f), byBulk.FrameZeroed(f), byLoop.FrameZeroed(f))
			}
		}
		// The drained allocators must also behave identically afterwards:
		// reclaim pressure pops the same page-cache frames.
		ba, e1 := byBulk.Alloc(0, PreferZero, TagAnon)
		la, e2 := byLoop.Alloc(0, PreferZero, TagAnon)
		if (e1 == nil) != (e2 == nil) || (e1 == nil && ba.Head != la.Head) {
			t.Fatalf("seed %d: post-drain allocation diverged", seed)
		}
	}
}
