package vmm

import (
	"fmt"

	"hawkeye/internal/mem"
	"hawkeye/internal/trace"
)

// PromoteStats reports the work a copy-based promotion performed, so the
// caller (khugepaged or its equivalents) can charge simulated time.
type PromoteStats struct {
	CopiedPages int  // populated base pages copied into the huge block
	ZeroFilled  int  // unpopulated slots that had to be zero-filled
	WasZeroed   bool // destination block came pre-zeroed
}

// PromoteCopy collapses a base-mapped region into the destination huge
// block: populated pages are copied in place, holes are zero-filled, old
// frames are released, and a huge mapping is installed. This is Linux's
// khugepaged collapse path; the zero-filling of holes is where memory bloat
// is born (§2.1 of the paper).
func (v *VMM) PromoteCopy(p *Process, r *Region, dst mem.Block) PromoteStats {
	if r.Huge {
		panic("vmm: PromoteCopy on huge region")
	}
	if dst.Order != mem.HugeOrder {
		panic(fmt.Sprintf("vmm: PromoteCopy with order-%d block", dst.Order))
	}
	stats := PromoteStats{WasZeroed: dst.Zeroed}
	for slot := 0; slot < mem.HugePages; slot++ {
		e := &r.PTEs[slot]
		dstFrame := dst.Head + mem.FrameID(slot)
		if e.Present() {
			src := e.Frame
			v.Content.Copy(dstFrame, src)
			if v.Content.Get(src).Zero() {
				v.Alloc.MarkZeroed(dstFrame)
			} else {
				v.Alloc.MarkDirty(dstFrame)
			}
			stats.CopiedPages++
			v.UnmapBase(p, r, slot, true)
		} else {
			// Hole: the kernel must hand the application zeroed memory.
			if !dst.Zeroed {
				stats.ZeroFilled++
			}
			v.Content.SetZero(dstFrame)
			v.Alloc.MarkZeroed(dstFrame)
		}
	}
	if r.Reserved {
		// The old reservation (if any) no longer backs this region.
		v.releaseReservationLocked(r)
	}
	v.MapHuge(p, r, dst.Head)
	p.Stats.Promotions++
	return stats
}

// PromoteInPlace collapses a fully-populated reserved region without any
// copying: every base PTE already points into the naturally-aligned
// reservation block (FreeBSD's promotion path).
func (v *VMM) PromoteInPlace(p *Process, r *Region) {
	if r.Huge || !r.Reserved {
		panic("vmm: PromoteInPlace requires a reserved base region")
	}
	if r.populated != mem.HugePages {
		panic("vmm: PromoteInPlace on partially populated region")
	}
	head := r.ReservedBlock.Head
	for slot := 0; slot < mem.HugePages; slot++ {
		e := &r.PTEs[slot]
		if e.Frame != head+mem.FrameID(slot) || e.COW() {
			panic("vmm: reservation PTEs not in place")
		}
		// Clear without freeing: frames stay, mapping granularity changes.
		v.rmap.Set(int(e.Frame), mapping{})
		e.Frame = mem.NoFrame
		e.Flags = 0
	}
	r.clearSlotBitmaps()
	r.populated = 0
	r.resident = 0
	p.rss -= mem.HugePages
	r.Reserved = false
	v.MapHuge(p, r, head)
	p.Stats.Promotions++
	p.Stats.InPlace++
}

// Demote splits a huge mapping back into 512 base mappings over the same
// frames. No copying is needed; the region can be partially freed or
// de-duplicated afterwards.
func (v *VMM) Demote(p *Process, r *Region) {
	if !r.Huge {
		panic("vmm: Demote on non-huge region")
	}
	head := r.HugeFrame
	accessed := r.hugeFlags&pteAccessed != 0
	v.UnmapHuge(p, r, false)
	for slot := 0; slot < mem.HugePages; slot++ {
		v.MapBase(p, r, slot, head+mem.FrameID(slot))
	}
	if !accessed {
		// The huge mapping was cold: the split base mappings inherit that.
		r.accessed = [bitmapWords]uint64{}
	}
	p.Stats.Demotions++
}

// Reserve attaches a physical huge block to the region (FreeBSD-style
// reservation). Base faults should then map frame head+slot.
func (v *VMM) Reserve(r *Region, blk mem.Block) {
	if r.Huge || r.Reserved {
		panic("vmm: Reserve on huge or already-reserved region")
	}
	if blk.Order != mem.HugeOrder {
		panic("vmm: Reserve with non-huge block")
	}
	r.Reserved = true
	r.ReservedBlock = blk
	r.reservedFreed = [bitmapWords]uint64{}
}

// ReleaseReservation frees the unpopulated frames of a reservation (memory
// pressure path) and detaches it. Populated frames keep backing their PTEs,
// and frames already freed when their mapping went away are not freed
// again. It returns the number of frames released.
func (v *VMM) ReleaseReservation(r *Region) int {
	if !r.Reserved {
		return 0
	}
	return v.releaseReservationLocked(r)
}

func (v *VMM) releaseReservationLocked(r *Region) int {
	head := r.ReservedBlock.Head
	released := 0
	for slot := 0; slot < mem.HugePages; slot++ {
		frame := head + mem.FrameID(slot)
		e := r.PTEs[slot]
		if e.Present() && !e.COW() && e.Frame == frame {
			continue // in use by this region
		}
		if w, m := bitOf(slot); r.reservedFreed[w]&m != 0 {
			continue // already given back
		}
		v.Alloc.Free(frame, 0, !v.Content.Get(frame).Zero())
		released++
	}
	r.Reserved = false
	r.ReservedBlock = mem.Block{Head: mem.NoFrame}
	return released
}

// DedupScan scans a huge-mapped region for zero-filled base pages, modelling
// HawkEye's bloat-recovery scanner: in-use pages cost only the distance to
// their first non-zero byte; zero pages cost a full 4 KB read.
type DedupScan struct {
	ZeroPages    int
	InUsePages   int
	BytesScanned int64
}

// ScanForZero performs the read-only scan of a huge region.
func (v *VMM) ScanForZero(r *Region) DedupScan {
	if !r.Huge {
		panic("vmm: ScanForZero on non-huge region")
	}
	var s DedupScan
	for slot := 0; slot < mem.HugePages; slot++ {
		res := v.Content.Scan(r.HugeFrame + mem.FrameID(slot))
		s.BytesScanned += int64(res.BytesScanned)
		if res.Zero {
			s.ZeroPages++
		} else {
			s.InUsePages++
		}
	}
	return s
}

// DedupHuge breaks a huge mapping and de-duplicates its zero-filled base
// pages against the canonical zero page (COW). Returns the number of frames
// released back to the allocator. This is HawkEye's bloat-recovery action
// (§3.2): RSS drops by the released page count.
func (v *VMM) DedupHuge(p *Process, r *Region) int {
	if !r.Huge {
		panic("vmm: DedupHuge on non-huge region")
	}
	v.Demote(p, r)
	released := 0
	for slot := 0; slot < mem.HugePages; slot++ {
		frame := r.PTEs[slot].Frame
		if !v.Content.Get(frame).Zero() {
			continue
		}
		v.UnmapBase(p, r, slot, true)
		v.MapShared(p, r, slot, v.ZeroFrame)
		released++
	}
	p.Stats.DedupPages += int64(released)
	p.Stats.BloatBroken++
	v.ctrDedup.Add(int64(released))
	v.tr.DedupMerge(trace.OriginKbloatd, int32(p.PID), int64(r.Index), int64(released))
	return released
}

// BreakCOW resolves a write to a COW mapping: a private frame is allocated
// by the caller and installed with the shared content copied in.
func (v *VMM) BreakCOW(p *Process, r *Region, slot int, newFrame mem.FrameID) {
	e := r.PTEs[slot]
	if !e.Present() || !e.COW() {
		panic("vmm: BreakCOW on non-COW PTE")
	}
	shared := e.Frame
	v.UnmapBase(p, r, slot, false)
	v.Content.Copy(newFrame, shared)
	if v.Content.Get(newFrame).Zero() {
		v.Alloc.MarkZeroed(newFrame)
	} else {
		v.Alloc.MarkDirty(newFrame)
	}
	v.MapBase(p, r, slot, newFrame)
	p.Stats.COWFaults++
}

// DontNeed releases [start, start+pages) as madvise(MADV_DONTNEED) does:
// huge mappings covering the range are demoted first, then covered base
// pages are unmapped and freed. A huge mapping the range covers whole is
// zapped in one pass instead (see zapHuge). Returns the number of pages
// released.
func (v *VMM) DontNeed(p *Process, start VPN, pages mem.Pages) mem.Pages {
	released := mem.Pages(0)
	end := start.Advance(pages)
	for vpn := start; vpn < end; {
		r := p.region(RegionOf(vpn))
		regionEnd := RegionOf(vpn).BaseVPN() + mem.HugePages
		if r == nil {
			vpn = regionEnd
			continue
		}
		if r.Huge && vpn == RegionOf(vpn).BaseVPN() && end >= regionEnd {
			released += v.zapHuge(p, r)
			vpn = regionEnd
			continue
		}
		if r.Huge {
			v.Demote(p, r)
		}
		for ; vpn < end && vpn < regionEnd; vpn++ {
			slot := SlotOf(vpn)
			if v.Swap != nil && r.PTEs[slot].Swapped() {
				v.dropSwapSlot(r, slot, v.Swap)
				continue
			}
			if r.PTEs[slot].Present() {
				wasShared := r.PTEs[slot].COW()
				v.UnmapBase(p, r, slot, true)
				if !wasShared {
					released++
				}
			}
		}
		if r.Reserved && r.populated == 0 {
			released += mem.Pages(v.releaseReservationLocked(r))
		}
	}
	return released
}

// zapHuge releases a whole huge mapping with the end state of Demote
// followed by UnmapBase(slot, true) for every slot in ascending order:
// empty PTEs and slot bitmaps, every reverse-map cell of the block
// written (so the same copy-on-write chunks materialize), RSS and the
// huge-mapping count dropped, one demotion counted, and the frames freed
// page by page through FreeHugeFrames. A huge region is never reserved,
// so DontNeed's reservation check has nothing to add. Returns the pages
// released.
func (v *VMM) zapHuge(p *Process, r *Region) mem.Pages {
	head := r.HugeFrame
	var dirty mem.HugeMask
	for i := 0; i < mem.HugePages; i++ {
		if !v.Content.Get(head + mem.FrameID(i)).Zero() {
			dirty.Set(i)
		}
	}
	r.Huge = false
	r.HugeFrame = mem.NoFrame
	r.hugeFlags = 0
	for i := range r.PTEs {
		r.PTEs[i] = PTE{Frame: mem.NoFrame}
	}
	r.clearSlotBitmaps()
	p.hugeMapped--
	p.rss -= mem.HugePages
	for i := 0; i < mem.HugePages; {
		span := v.rmap.MutSpan(int(head) + i)
		n := min(len(span), mem.HugePages-i)
		clear(span[:n])
		i += n
	}
	v.Alloc.FreeHugeFrames(head, &dirty)
	p.Stats.Demotions++
	return mem.HugePages
}
