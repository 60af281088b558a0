package vmm

import (
	"testing"

	"hawkeye/internal/content"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
)

// harness bundles a small simulated machine for VMM tests.
type harness struct {
	alloc *mem.Allocator
	store *content.Store
	vmm   *VMM
}

func newHarness(t testing.TB, mb mem.Bytes) *harness {
	t.Helper()
	alloc := mem.NewAllocator(mb << 20)
	store := content.NewStore(int64(alloc.TotalPages()), sim.NewRand(7))
	return &harness{alloc: alloc, store: store, vmm: New(alloc, store)}
}

// mapBasePage allocates and maps one base page at vpn.
func (h *harness) mapBasePage(t testing.TB, p *Process, vpn VPN) mem.FrameID {
	t.Helper()
	blk, err := h.alloc.Alloc(0, mem.PreferZero, mem.TagAnon)
	if err != nil {
		t.Fatal(err)
	}
	h.store.SetZero(blk.Head)
	r := p.EnsureRegion(RegionOf(vpn))
	h.vmm.MapBase(p, r, SlotOf(vpn), blk.Head)
	return blk.Head
}

func TestMapBaseRSS(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("test")
	for vpn := VPN(0); vpn < 100; vpn++ {
		h.mapBasePage(t, p, vpn)
	}
	if p.RSS() != 100 {
		t.Fatalf("RSS = %d, want 100", p.RSS())
	}
	pte, huge, present := p.Lookup(50)
	if !present || huge || !pte.Present() {
		t.Fatalf("lookup(50) = %+v huge=%v present=%v", pte, huge, present)
	}
	if _, _, present := p.Lookup(100); present {
		t.Fatal("lookup(100) should be absent")
	}
}

func TestMapHugeRSS(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("test")
	blk, err := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
	if err != nil {
		t.Fatal(err)
	}
	r := p.EnsureRegion(0)
	h.vmm.MapHuge(p, r, blk.Head)
	if p.RSS() != mem.HugePages {
		t.Fatalf("RSS = %d, want %d", p.RSS(), mem.HugePages)
	}
	if p.HugeMapped() != 1 {
		t.Fatalf("HugeMapped = %d, want 1", p.HugeMapped())
	}
	pte, huge, present := p.Lookup(17)
	if !present || !huge || pte.Frame != blk.Head+17 {
		t.Fatalf("huge lookup wrong: %+v %v %v", pte, huge, present)
	}
}

func TestAccessBitsAndDirty(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("test")
	f := h.mapBasePage(t, p, 5)
	r := p.Region(RegionOf(5))
	r.ClearAccessBits()
	if r.AccessedCount() != 0 {
		t.Fatal("access bits not cleared")
	}
	if res := h.vmm.Access(p, 5, false); res != TouchOK {
		t.Fatalf("read access = %v", res)
	}
	if r.AccessedCount() != 1 {
		t.Fatal("read did not set access bit")
	}
	if !h.store.Get(f).Zero() {
		t.Fatal("read must not dirty content")
	}
	if res := h.vmm.Access(p, 5, true); res != TouchOK {
		t.Fatalf("write access = %v", res)
	}
	if h.store.Get(f).Zero() {
		t.Fatal("write did not update content")
	}
	if res := h.vmm.Access(p, 6, false); res != TouchFault {
		t.Fatalf("unmapped access = %v, want fault", res)
	}
}

func TestPromoteCopyAndBloat(t *testing.T) {
	h := newHarness(t, 64)
	p := h.vmm.NewProcess("test")
	// Populate 300 of 512 slots, writing 100 of them.
	for slot := 0; slot < 300; slot++ {
		h.mapBasePage(t, p, VPN(slot))
		if slot < 100 {
			h.vmm.Access(p, VPN(slot), true)
		}
	}
	r := p.Region(0)
	dst, err := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := h.alloc.FreePages()
	stats := h.vmm.PromoteCopy(p, r, dst)
	if stats.CopiedPages != 300 {
		t.Fatalf("copied %d, want 300", stats.CopiedPages)
	}
	if !stats.WasZeroed || stats.ZeroFilled != 0 {
		t.Fatalf("pre-zeroed block should not need filling: %+v", stats)
	}
	if !r.Huge || p.RSS() != mem.HugePages {
		t.Fatalf("promotion did not install huge mapping (rss=%d)", p.RSS())
	}
	// 300 old frames freed.
	if h.alloc.FreePages() != freeBefore+300 {
		t.Fatalf("old frames not freed: %d -> %d", freeBefore, h.alloc.FreePages())
	}
	// Content must be preserved: slot 50 was written, slot 200 zero.
	if h.store.Get(dst.Head + 50).Zero() {
		t.Fatal("written content lost in promotion")
	}
	if !h.store.Get(dst.Head + 200).Zero() {
		t.Fatal("zero page corrupted in promotion")
	}
	if p.Stats.Promotions != 1 {
		t.Fatal("promotion not counted")
	}
}

func TestDemoteRoundTrip(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("test")
	blk, _ := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
	r := p.EnsureRegion(3)
	h.vmm.MapHuge(p, r, blk.Head)
	h.vmm.Access(p, r.Index.BaseVPN()+9, true)
	h.vmm.Demote(p, r)
	if r.Huge {
		t.Fatal("still huge after demote")
	}
	if r.Populated() != mem.HugePages || p.RSS() != mem.HugePages {
		t.Fatalf("demote lost pages: populated=%d rss=%d", r.Populated(), p.RSS())
	}
	pte, huge, present := p.Lookup(r.Index.BaseVPN() + 9)
	if !present || huge || pte.Frame != blk.Head+9 {
		t.Fatalf("demoted mapping wrong: %+v", pte)
	}
	if p.Stats.Demotions != 1 {
		t.Fatal("demotion not counted")
	}
}

func TestReservationInPlacePromotion(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("test")
	blk, _ := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
	r := p.EnsureRegion(0)
	h.vmm.Reserve(r, blk)
	for slot := 0; slot < mem.HugePages; slot++ {
		h.store.SetZero(blk.Head + mem.FrameID(slot))
		h.vmm.MapBase(p, r, slot, blk.Head+mem.FrameID(slot))
	}
	h.vmm.PromoteInPlace(p, r)
	if !r.Huge || r.HugeFrame != blk.Head {
		t.Fatal("in-place promotion failed")
	}
	if p.Stats.InPlace != 1 {
		t.Fatal("in-place not counted")
	}
	if p.RSS() != mem.HugePages {
		t.Fatalf("rss = %d", p.RSS())
	}
}

// TestReleaseReservation drives a reserved region's frames back to the
// allocator along every path that releases the reservation, including
// those that free some of its frames before the reservation itself goes:
// each frame must be freed exactly once (a second free panics), the
// allocator must stay consistent, and every frame the process no longer
// maps must be free again at the end.
func TestReleaseReservation(t *testing.T) {
	cases := []struct {
		name     string
		populate int
		run      func(t *testing.T, h *harness, p *Process, r *Region)
	}{
		{"release", 10, func(t *testing.T, h *harness, p *Process, r *Region) {
			if got := h.vmm.ReleaseReservation(r); got != mem.HugePages-10 {
				t.Fatalf("ReleaseReservation released %d, want %d", got, mem.HugePages-10)
			}
		}},
		{"DontNeed part then release", 10, func(t *testing.T, h *harness, p *Process, r *Region) {
			if got := h.vmm.DontNeed(p, 0, 5); got != 5 {
				t.Fatalf("DontNeed released %d, want 5", got)
			}
			if got := h.vmm.ReleaseReservation(r); got != mem.HugePages-10 {
				t.Fatalf("ReleaseReservation released %d, want %d", got, mem.HugePages-10)
			}
		}},
		{"DontNeed whole region", 10, func(t *testing.T, h *harness, p *Process, r *Region) {
			if got := h.vmm.DontNeed(p, 0, mem.HugePages); got != mem.HugePages {
				t.Fatalf("DontNeed released %d, want %d", got, mem.HugePages)
			}
		}},
		{"Exit", 10, func(t *testing.T, h *harness, p *Process, r *Region) {
			h.vmm.Exit(p)
		}},
		{"PromoteCopy", 10, func(t *testing.T, h *harness, p *Process, r *Region) {
			dst, err := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
			if err != nil {
				t.Fatal(err)
			}
			h.vmm.PromoteCopy(p, r, dst)
		}},
		{"compaction migrates the rest", mem.HugePages, func(t *testing.T, h *harness, p *Process, r *Region) {
			h.vmm.DontNeed(p, 0, 400)
			if res := h.alloc.Compact(1); res.Moved != mem.HugePages-400 {
				t.Fatalf("compaction moved %d frames, want %d", res.Moved, mem.HugePages-400)
			}
			if got := h.vmm.ReleaseReservation(r); got != 0 {
				t.Fatalf("ReleaseReservation released %d, want 0", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 32)
			p := h.vmm.NewProcess("test")
			startFree := h.alloc.FreePages()
			blk, err := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
			if err != nil {
				t.Fatal(err)
			}
			r := p.EnsureRegion(0)
			h.vmm.Reserve(r, blk)
			for slot := 0; slot < tc.populate; slot++ {
				h.vmm.MapBase(p, r, slot, blk.Head+mem.FrameID(slot))
			}
			tc.run(t, h, p, r)
			if r.Reserved {
				t.Fatal("reservation still attached")
			}
			if msg := h.alloc.CheckConsistency(); msg != "" {
				t.Fatal(msg)
			}
			if got, want := h.alloc.FreePages(), startFree-mem.Pages(p.RSS()); got != want {
				t.Fatalf("free pages = %d, want %d (rss %d)", got, want, p.RSS())
			}
		})
	}
}

func TestDedupHugeRecoversBloat(t *testing.T) {
	h := newHarness(t, 64)
	p := h.vmm.NewProcess("test")
	blk, _ := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
	r := p.EnsureRegion(0)
	for i := mem.FrameID(0); i < mem.HugePages; i++ {
		h.store.SetZero(blk.Head + i)
	}
	h.vmm.MapHuge(p, r, blk.Head)
	// Application wrote only 64 of 512 pages.
	for slot := 0; slot < 64; slot++ {
		h.vmm.Access(p, VPN(slot), true)
	}
	scan := h.vmm.ScanForZero(r)
	if scan.ZeroPages != mem.HugePages-64 || scan.InUsePages != 64 {
		t.Fatalf("scan = %+v", scan)
	}
	// In-use pages must be cheap to scan, zero pages cost 4096 bytes each.
	if scan.BytesScanned < int64(scan.ZeroPages)*mem.PageSize {
		t.Fatal("scan bytes too low")
	}
	if scan.BytesScanned > int64(scan.ZeroPages)*mem.PageSize+64*200 {
		t.Fatalf("in-use scanning too expensive: %d bytes", scan.BytesScanned)
	}
	free := h.alloc.FreePages()
	released := h.vmm.DedupHuge(p, r)
	if released != mem.HugePages-64 {
		t.Fatalf("released %d, want %d", released, mem.HugePages-64)
	}
	if h.alloc.FreePages() != free+mem.Pages(released) {
		t.Fatal("dedup did not free frames")
	}
	if p.RSS() != 64 {
		t.Fatalf("rss after dedup = %d, want 64", p.RSS())
	}
	// The deduped slots read as zero through the shared mapping.
	pte, _, present := p.Lookup(100)
	if !present || !pte.COW() || pte.Frame != h.vmm.ZeroFrame {
		t.Fatalf("slot 100 not shared-zero: %+v", pte)
	}
}

func TestCOWBreakAfterDedup(t *testing.T) {
	h := newHarness(t, 64)
	p := h.vmm.NewProcess("test")
	blk, _ := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
	r := p.EnsureRegion(0)
	for i := mem.FrameID(0); i < mem.HugePages; i++ {
		h.store.SetZero(blk.Head + i)
	}
	h.vmm.MapHuge(p, r, blk.Head)
	h.vmm.DedupHuge(p, r)
	// Writing a deduped page must trigger a COW fault.
	if res := h.vmm.Access(p, 100, true); res != TouchCOW {
		t.Fatalf("write to shared zero = %v, want TouchCOW", res)
	}
	// Reads are fine.
	if res := h.vmm.Access(p, 100, false); res != TouchOK {
		t.Fatalf("read of shared zero = %v, want OK", res)
	}
	nblk, _ := h.alloc.Alloc(0, mem.PreferZero, mem.TagAnon)
	h.vmm.BreakCOW(p, r, 100, nblk.Head)
	if res := h.vmm.Access(p, 100, true); res != TouchOK {
		t.Fatalf("write after COW break = %v", res)
	}
	if p.RSS() != 1 {
		t.Fatalf("rss = %d, want 1 (one private page)", p.RSS())
	}
	if p.Stats.COWFaults != 1 {
		t.Fatal("COW fault not counted")
	}
}

func TestDontNeedBreaksHugeAndFrees(t *testing.T) {
	h := newHarness(t, 64)
	p := h.vmm.NewProcess("test")
	blk, _ := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
	r := p.EnsureRegion(0)
	h.vmm.MapHuge(p, r, blk.Head)
	free := h.alloc.FreePages()
	// Free the middle 100 pages of the huge region.
	released := h.vmm.DontNeed(p, 200, 100)
	if released != 100 {
		t.Fatalf("released %d, want 100", released)
	}
	if r.Huge {
		t.Fatal("huge mapping should have been demoted")
	}
	if p.RSS() != mem.HugePages-100 {
		t.Fatalf("rss = %d, want %d", p.RSS(), mem.HugePages-100)
	}
	if h.alloc.FreePages() != free+100 {
		t.Fatal("frames not freed")
	}
	if _, _, present := p.Lookup(250); present {
		t.Fatal("freed page still mapped")
	}
	if _, _, present := p.Lookup(100); !present {
		t.Fatal("unaffected page lost")
	}
}

func TestMoveFrameUpdatesPTE(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("test")
	old := h.mapBasePage(t, p, 42)
	h.vmm.Access(p, 42, true)
	dst, _ := h.alloc.Alloc(0, mem.PreferZero, mem.TagAnon)
	if !h.vmm.MoveFrame(old, dst.Head) {
		t.Fatal("move refused")
	}
	pte, _, _ := p.Lookup(42)
	if pte.Frame != dst.Head {
		t.Fatalf("PTE frame = %d, want %d", pte.Frame, dst.Head)
	}
	if h.store.Get(dst.Head).Zero() {
		t.Fatal("content not migrated")
	}
	// Shared frames are pinned.
	r := p.Region(0)
	h.vmm.UnmapBase(p, r, 42, true)
	h.vmm.MapShared(p, r, 42, h.vmm.ZeroFrame)
	if h.vmm.MoveFrame(h.vmm.ZeroFrame, dst.Head) {
		t.Fatal("zero frame must be pinned")
	}
}

func TestExitFreesEverything(t *testing.T) {
	h := newHarness(t, 64)
	p := h.vmm.NewProcess("test")
	total := h.alloc.FreePages()
	for vpn := VPN(0); vpn < 600; vpn++ {
		h.mapBasePage(t, p, vpn)
	}
	blk, _ := h.alloc.Alloc(mem.HugeOrder, mem.PreferZero, mem.TagAnon)
	r := p.EnsureRegion(10)
	h.vmm.MapHuge(p, r, blk.Head)
	h.vmm.Exit(p)
	if !p.Dead {
		t.Fatal("process not dead")
	}
	if h.alloc.FreePages() != total {
		t.Fatalf("leak on exit: %d != %d", h.alloc.FreePages(), total)
	}
	if len(h.vmm.Processes()) != 0 {
		t.Fatal("dead process still listed")
	}
}

func TestRegionsInOrder(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("test")
	p.EnsureRegion(5)
	p.EnsureRegion(1)
	p.EnsureRegion(3)
	regs := p.RegionsInOrder()
	if len(regs) != 3 || regs[0].Index != 1 || regs[1].Index != 3 || regs[2].Index != 5 {
		t.Fatalf("order wrong: %v %v %v", regs[0].Index, regs[1].Index, regs[2].Index)
	}
}

func TestRegionHelpers(t *testing.T) {
	if RegionOf(513) != 1 || SlotOf(513) != 1 {
		t.Fatal("RegionOf/SlotOf wrong")
	}
	if RegionIndex(2).BaseVPN() != 1024 {
		t.Fatal("BaseVPN wrong")
	}
}

func TestPopulatedAccessedDirty(t *testing.T) {
	h := newHarness(t, 32)
	p := h.vmm.NewProcess("test")
	for vpn := VPN(0); vpn < 10; vpn++ {
		h.mapBasePage(t, p, vpn)
	}
	r := p.Region(0)
	r.ClearAccessBits()
	h.vmm.Access(p, 0, true)
	h.vmm.Access(p, 1, false)
	pop, acc, dirty := r.PopulatedAccessedDirty()
	if pop != 10 || acc != 2 || dirty != 1 {
		t.Fatalf("pop/acc/dirty = %d/%d/%d, want 10/2/1", pop, acc, dirty)
	}
}
