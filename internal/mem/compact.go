package mem

// Memory compaction: rebuild huge-page-sized contiguous free blocks by
// migrating movable (anonymous) frames out of almost-free 2 MB chunks,
// mirroring Linux's compaction pass that khugepaged relies on. The actual
// remapping of migrated frames is delegated to the registered Mover (the
// virtual-memory layer), which updates page tables.

// CompactResult summarizes one compaction pass.
type CompactResult struct {
	BlocksBuilt int   // huge-page-sized free blocks created
	Moved       int64 // frames migrated during this pass
	Scanned     int64 // chunks examined
}

// Compact attempts to create up to want free blocks of HugeOrder by
// migrating movable frames. It returns how many were built. A Mover must be
// registered; chunks containing unmovable (kernel/file) frames are skipped —
// file pages are reclaimed by the allocator under pressure instead.
func (a *Allocator) Compact(want int) CompactResult {
	var res CompactResult
	if want <= 0 || a.mover == nil {
		return res
	}
	movedBefore := a.MovedFrames
	for c := 0; c < len(a.occ) && res.BlocksBuilt < want; c++ {
		res.Scanned++
		// The chunk's occupancy counts are current (earlier evacuations in
		// this pass included), so they stand in for a scan of its tags.
		occ := a.occ[c]
		if int(occ.free)+int(occ.anon) < HugePages { // holds an unmovable frame
			continue
		}
		if occ.anon == 0 || occ.free == 0 {
			continue
		}
		// Skip chunks that are mostly allocated: migrating nearly a whole
		// chunk costs more than it recovers, and those frames serve better
		// as migration destinations for sparser chunks.
		if occ.anon > HugePages*3/4 {
			continue
		}
		if a.evacuate(chunkBase(c), HugePages) {
			res.BlocksBuilt++
			a.CompactedBlocks++
		}
	}
	res.Moved = a.MovedFrames - movedBefore
	if a.tr != nil {
		a.tr.Compaction(int64(res.BlocksBuilt), res.Moved)
		if res.BlocksBuilt > 0 {
			a.ctrCompactSuccess.Add(int64(res.BlocksBuilt))
		} else {
			a.ctrCompactFail.Inc()
		}
		a.ctrCompactMoved.Add(res.Moved)
		a.ctrCompactScanned.Add(res.Scanned)
	}
	return res
}

// evacuate migrates every allocated frame out of [base, base+n) so the chunk
// becomes one free block. The chunk's free blocks are first quarantined
// (unlinked from the free lists, as Linux isolates pages during compaction)
// so destination allocations can never land inside the chunk. Returns false
// if any migration failed; partial progress is rolled back onto the free
// lists either way.
func (a *Allocator) evacuate(base, n FrameID) bool {
	// Quarantine every free block inside the chunk. Buddy blocks are
	// power-of-two aligned, so a free block of order <= chunk order is
	// either fully inside or fully outside.
	for i := base; i < base+n; {
		f := a.frames.Get(int(i))
		if f.tag == TagFree && f.freeHead {
			a.unlinkFree(i)
			i += FrameID(1) << f.order
			continue
		}
		i++
	}
	failed := false
	for i := base; i < base+n && !failed; i++ {
		if a.frames.Get(int(i)).tag != TagAnon {
			continue
		}
		blk, ok := a.allocDestination()
		if !ok {
			failed = true
			break
		}
		if !a.mover.MoveFrame(i, blk.Head) {
			// Pinned page: return the destination and abandon the chunk.
			a.Free(blk.Head, 0, false)
			failed = true
			break
		}
		// The destination inherits the source's content state; the stale
		// source is treated as dirty.
		if a.frameZeroed(i) {
			a.setFrameZeroed(blk.Head)
		} else {
			a.clearFrameZeroed(blk.Head)
		}
		src := a.frames.Mut(int(i))
		src.tag = TagFree
		a.moveOcc(i, 1, TagAnon, TagFree)
		a.clearFrameZeroed(i)
		a.tagPages[TagAnon]--
		a.freePages++
		a.MovedFrames++
	}
	if failed {
		a.FailedMoves++
		// Reinsert whatever is free inside the chunk as single frames; they
		// coalesce with linked buddies as far as possible.
		for i := base; i < base+n; i++ {
			if f := a.frames.Get(int(i)); f.tag == TagFree && !f.freeHead {
				if a.onFreeList(i) {
					continue
				}
				a.coalesce(i, 0)
			}
		}
		return false
	}
	// Whole chunk is free and quarantined: insert it as one block.
	a.coalesce(base, HugeOrder)
	return true
}

// allocDestination allocates one migration-target frame without ever
// splitting a free block of huge-page size or larger — compaction must not
// consume the contiguity it exists to create. Returns ok=false when only
// huge-or-larger free blocks remain: at that point compaction has nothing
// left to gain.
func (a *Allocator) allocDestination() (Block, bool) {
	for o := 0; o < HugeOrder; o++ {
		for _, cls := range [2]int{classNonZero, classZero} {
			head := a.popFree(o, cls)
			if head == NoFrame {
				continue
			}
			for cur := o; cur > 0; cur-- {
				buddy := head + FrameID(1)<<(cur-1)
				a.insertFree(buddy, cur-1)
			}
			zeroed := a.blockAllZero(head, 0)
			a.commitAlloc(head, 0, TagAnon)
			return Block{Head: head, Order: 0, Zeroed: zeroed}, true
		}
	}
	return Block{Head: NoFrame}, false
}

// onFreeList reports whether frame i is covered by a linked free block (it
// may be an interior frame of a coalesced block rather than a head).
func (a *Allocator) onFreeList(i FrameID) bool {
	// Walk possible heads covering i: for each order, the aligned head.
	for o := 0; o <= MaxOrder; o++ {
		head := i &^ (FrameID(1)<<o - 1)
		f := a.frames.Get(int(head))
		if f.tag == TagFree && f.freeHead && int(f.order) == o && head+(FrameID(1)<<o) > i {
			return true
		}
	}
	return false
}
