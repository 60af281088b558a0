package vmm

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"hawkeye/internal/content"
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
)

// zapMachine is one traced machine of the DontNeed differential test.
type zapMachine struct {
	alloc *mem.Allocator
	store *content.Store
	vmm   *VMM
	p     *Process
	rec   *trace.Recorder
}

// fork returns a copy-on-write fork of a sealed machine with its own
// recorder attached.
func (m *zapMachine) fork() *zapMachine {
	alloc := m.alloc.Fork()
	store := m.store.Fork()
	v := m.vmm.ForkInto(alloc, store)
	rec := trace.NewRecorder(&sim.Clock{}, trace.Config{})
	alloc.SetTrace(rec)
	v.SetTrace(rec)
	var p *Process
	for _, q := range v.Processes() {
		if q.PID == m.p.PID {
			p = q
		}
	}
	return &zapMachine{alloc, store, v, p, rec}
}

// cowChunks sums the copy-on-write materializations of the tables
// DontNeed writes.
func (m *zapMachine) cowChunks() int64 {
	return m.alloc.COWDirtyChunks() + m.vmm.COWDirtyChunks()
}

// Region layout of the differential test, in address order. The first
// DontNeed covers zapMixed through zapClean whole; the second runs from
// slot zapFirstSlot of zapPartial to slot zapLastSlot of zapReserved.
const (
	zapMixed    RegionIndex = iota // huge, mixed dirty/zero frames, order-9 buddy busy
	zapAllDirty                    // huge, every frame dirty, order-9 buddy free
	zapClean                       // huge, every frame zero
	zapPartial                     // huge, only its tail covered (demote path)
	zapShared                      // base pages and zero-page COW mappings
	zapReserved                    // reserved base region, populated below slot 100
	zapBusy                        // huge over zapMixed's buddy, outside the range

	zapFirstSlot = 300
	zapLastSlot  = 60
)

// buildZapMachine builds a 64 MB machine with the regions above and free
// memory just under the low watermark, so the zaps cross it.
func buildZapMachine(t *testing.T) *zapMachine {
	t.Helper()
	alloc := mem.NewAllocator(64 << 20)
	store := content.NewStore(int64(alloc.TotalPages()), sim.NewRand(11))
	v := New(alloc, store)
	p := v.NewProcess("zap")
	rng := sim.NewRand(5)
	allocHead := func(order int) mem.FrameID {
		blk, err := alloc.Alloc(order, mem.PreferZero, mem.TagAnon)
		if err != nil {
			t.Fatal(err)
		}
		return blk.Head
	}
	mixed, dirty := allocHead(mem.MaxOrder), allocHead(mem.MaxOrder)
	clean, partial := allocHead(mem.HugeOrder), allocHead(mem.HugeOrder)
	reserved := mem.Block{Head: allocHead(mem.HugeOrder), Order: mem.HugeOrder}
	huge := func(idx RegionIndex, head mem.FrameID) {
		v.MapHuge(p, p.EnsureRegion(idx), head)
	}
	huge(zapMixed, mixed)
	huge(zapBusy, mixed+mem.HugePages)
	huge(zapAllDirty, dirty)
	huge(zapClean, clean)
	huge(zapPartial, partial)
	for i := mem.FrameID(0); i < mem.HugePages; i++ {
		// Mixed content, and allocator zero bits that disagree with it on
		// some frames either way.
		switch rng.Intn(4) {
		case 0:
			store.Write(mixed + i)
		case 1:
			store.Write(mixed + i)
			alloc.MarkDirty(mixed + i)
		case 2:
			alloc.MarkDirty(mixed + i)
		}
		store.Write(dirty + i)
		if rng.Intn(3) == 0 {
			store.Write(partial + i)
		}
	}
	r := p.EnsureRegion(zapReserved)
	v.Reserve(r, reserved)
	for slot := 0; slot < 100; slot++ {
		f := reserved.Head + mem.FrameID(slot)
		if slot%3 == 0 {
			store.Write(f)
		}
		v.MapBase(p, r, slot, f)
	}
	r = p.EnsureRegion(zapShared)
	for slot := 0; slot < 64; slot++ {
		if slot%2 == 0 {
			v.MapShared(p, r, slot, v.ZeroFrame)
			continue
		}
		blk, err := alloc.Alloc(0, mem.PreferZero, mem.TagAnon)
		if err != nil {
			t.Fatal(err)
		}
		store.Write(blk.Head)
		v.MapBase(p, r, slot, blk.Head)
	}
	// Pin order-0 kernel frames until free memory sits 50 pages under the
	// low watermark (total/10) once zapAllDirty's buddy is freed, so the
	// crossing falls inside zapMixed's zap.
	low := alloc.TotalPages() / 10
	for alloc.FreePages() > low-50-mem.HugePages {
		if _, err := alloc.Alloc(0, mem.PreferNonZero, mem.TagKernel); err != nil {
			t.Fatal(err)
		}
	}
	alloc.Free(dirty+mem.HugePages, mem.HugeOrder, true)
	alloc.Seal()
	store.Seal()
	v.Seal()
	return &zapMachine{alloc: alloc, store: store, vmm: v, p: p}
}

// TestDontNeedZapMatchesDemote is the differential test of DontNeed's
// one-pass huge-region zap: two forks of one sealed machine release the
// same ranges, one through the zap, the other with every huge region in
// the range demoted first (so DontNeed unmaps and frees page by page).
// Every observable result must match: pages released, allocator
// accounting, tags, zero bits and free lists, page tables, slot bitmaps,
// reverse map, RSS and stats, copy-on-write chunk materializations and the
// traced events, watermark crossings included. The first range holds only
// whole huge regions, so its zaps run before any page-by-page free has
// materialized the free-list heads' chunks.
func TestDontNeedZapMatchesDemote(t *testing.T) {
	base := buildZapMachine(t)
	zap, ref := base.fork(), base.fork()
	ranges := []struct {
		start VPN
		pages mem.Pages
	}{
		{zapMixed.BaseVPN(), mem.Pages(zapPartial.BaseVPN() - zapMixed.BaseVPN())},
		{zapPartial.BaseVPN() + zapFirstSlot, mem.Pages(zapReserved.BaseVPN()-zapPartial.BaseVPN()) - zapFirstSlot + zapLastSlot},
	}
	for i, rg := range ranges {
		cowZap, cowRef := zap.cowChunks(), ref.cowChunks()
		for idx := RegionOf(rg.start); idx <= RegionOf(rg.start.Advance(rg.pages-1)); idx++ {
			if r := ref.p.Region(idx); r.Huge {
				ref.vmm.Demote(ref.p, r)
			}
		}
		gotZap := zap.vmm.DontNeed(zap.p, rg.start, rg.pages)
		gotRef := ref.vmm.DontNeed(ref.p, rg.start, rg.pages)
		if gotZap != gotRef {
			t.Fatalf("range %d: released %d pages, page-by-page path %d", i, gotZap, gotRef)
		}
		if d := diffZapMachines(zap, ref); d != "" {
			t.Fatalf("range %d: %s", i, d)
		}
		if a, b := zap.cowChunks()-cowZap, ref.cowChunks()-cowRef; a != b {
			t.Errorf("range %d: copy-on-write materializations: zap %d, page-by-page %d", i, a, b)
		}
	}
	crossings := 0
	for _, ev := range zap.rec.Events() {
		if ev.Kind == trace.KindWatermarkCross {
			crossings++
		}
	}
	if crossings == 0 {
		t.Error("no watermark crossing traced: the test no longer covers per-frame watermark checks")
	}
	lists := drainFreeLists(zap.alloc)
	if want := (mem.Block{Head: base.p.Region(zapAllDirty).HugeFrame, Order: mem.MaxOrder}); !slices.Contains(lists, want) {
		t.Errorf("no free block %+v: zapAllDirty did not merge with its buddy", want)
	}
	if ref := drainFreeLists(ref.alloc); !slices.Equal(lists, ref) {
		t.Errorf("free lists differ:\nzap  %v\npage %v", lists, ref)
	}
}

// diffZapMachines describes the first observable difference between two
// machines after the same DontNeed, or returns "".
func diffZapMachines(a, b *zapMachine) string {
	for _, m := range []*zapMachine{a, b} {
		if msg := m.alloc.CheckConsistency(); msg != "" {
			return "allocator inconsistent: " + msg
		}
	}
	type allocScalars struct {
		free, zeroFree, peak mem.Pages
		tags                 [5]mem.Pages
		blocks               [mem.MaxOrder + 1]int64
	}
	sc := func(x *mem.Allocator) allocScalars {
		s := allocScalars{free: x.FreePages(), zeroFree: x.ZeroFreePages(), peak: x.PeakAllocated()}
		for tag := range s.tags {
			s.tags[tag] = x.TagPages(mem.Tag(tag))
		}
		for o := range s.blocks {
			s.blocks[o] = x.FreeBlocks(o)
		}
		return s
	}
	if sa, sb := sc(a.alloc), sc(b.alloc); sa != sb {
		return fmt.Sprintf("allocator %+v vs %+v", sa, sb)
	}
	// Equal tags on both sides plus CheckConsistency (per-chunk counts
	// match the tags) make the occupancy counts equal too.
	for f := mem.FrameID(0); f < mem.FrameID(a.alloc.TotalPages()); f++ {
		if a.alloc.FrameTag(f) != b.alloc.FrameTag(f) || a.alloc.FrameZeroed(f) != b.alloc.FrameZeroed(f) {
			return fmt.Sprintf("frame %d: tag %v zeroed %v vs tag %v zeroed %v", f,
				a.alloc.FrameTag(f), a.alloc.FrameZeroed(f), b.alloc.FrameTag(f), b.alloc.FrameZeroed(f))
		}
		if a.vmm.rmap.Get(int(f)) != b.vmm.rmap.Get(int(f)) {
			return fmt.Sprintf("rmap of frame %d: %+v vs %+v", f, a.vmm.rmap.Get(int(f)), b.vmm.rmap.Get(int(f)))
		}
	}
	if !maps.Equal(a.vmm.refs, b.vmm.refs) {
		return fmt.Sprintf("shared refs %v vs %v", a.vmm.refs, b.vmm.refs)
	}
	if a.p.rss != b.p.rss || a.p.hugeMapped != b.p.hugeMapped || a.p.Stats != b.p.Stats {
		return fmt.Sprintf("process rss %d huge %d %+v vs rss %d huge %d %+v",
			a.p.rss, a.p.hugeMapped, a.p.Stats, b.p.rss, b.p.hugeMapped, b.p.Stats)
	}
	for idx := zapPartial; idx <= zapBusy; idx++ {
		if ra, rb := a.p.Region(idx), b.p.Region(idx); *ra != *rb {
			return fmt.Sprintf("region %d differs (huge %v/%v populated %d/%d resident %d/%d)",
				idx, ra.Huge, rb.Huge, ra.populated, rb.populated, ra.resident, rb.resident)
		}
	}
	if ea, eb := a.rec.Events(), b.rec.Events(); !slices.Equal(ea, eb) {
		return fmt.Sprintf("traced events differ:\nzap  %+v\npage %+v", ea, eb)
	}
	return ""
}

// drainFreeLists walks every free list through the public API: from the
// top order down, each order's blocks are allocated at exactly that order
// (larger lists are already empty, so nothing splits), the zero list in
// order and then the non-zero list. It returns the blocks as allocated.
func drainFreeLists(a *mem.Allocator) []mem.Block {
	var out []mem.Block
	for o := mem.MaxOrder; o >= 0; o-- {
		for a.FreeBlocks(o) > 0 {
			blk, ok := a.AllocOpportunistic(o, mem.PreferZero, mem.TagKernel)
			if !ok {
				panic("drainFreeLists: listed block not allocatable")
			}
			out = append(out, blk)
		}
	}
	return out
}
