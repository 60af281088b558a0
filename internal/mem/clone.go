package mem

import (
	"slices"

	"hawkeye/internal/trace"
)

// Snapshot/fork support for the allocator. Machines fork one way: Seal
// freezes the tables in O(#chunks), after which Fork produces copies that
// share every chunk until one side writes it. Clone is the deep copy: every
// resident table chunk is duplicated up front, so the copy shares no
// writable state with the original. Nothing in the simulator forks
// machines with it; it is the independent reference the allocator's
// differential tests (FuzzAllocatorOps) hold Fork and the fast paths to.
//
// Neither copy carries over the trace recorder or the compaction Mover
// (both reference the machine the allocator belongs to); the caller
// re-attaches them with SetTrace and SetMover on the new machine.

// Clone returns a deep copy of the allocator: free lists, per-frame state,
// the zero-content bitmap, the page-cache LIFO and every statistic. The
// copy shares no mutable state with the original — mutating either side
// never affects the other.
func (a *Allocator) Clone() *Allocator {
	c := a.cloneHeader()
	c.frames = a.frames.DeepClone()
	c.next = a.next.DeepClone()
	c.prev = a.prev.DeepClone()
	c.zeroBits = a.zeroBits.DeepClone()
	c.fileLIFO = a.fileLIFO.DeepClone()
	return c
}

// Seal freezes every per-frame table so the allocator can be forked. The
// allocator stays fully usable; its later writes copy the chunks they
// touch.
func (a *Allocator) Seal() {
	a.frames.Seal()
	a.next.Seal()
	a.prev.Seal()
	a.zeroBits.Seal()
	a.fileLIFO.Seal()
}

// Fork returns a copy-on-write copy of a sealed allocator: all five
// tables share every chunk with a until one side writes it. Scalar state
// (free-list heads, counts, watermarks, statistics) is copied by value.
func (a *Allocator) Fork() *Allocator {
	c := a.cloneHeader()
	c.frames = a.frames.Fork()
	c.next = a.next.Fork()
	c.prev = a.prev.Fork()
	c.zeroBits = a.zeroBits.Fork()
	c.fileLIFO = a.fileLIFO.Fork()
	return c
}

// cloneHeader copies every scalar field shared by Clone and Fork.
func (a *Allocator) cloneHeader() *Allocator {
	return &Allocator{
		heads:  a.heads,
		counts: a.counts,
		occ:    slices.Clone(a.occ),

		totalPages:    a.totalPages,
		freePages:     a.freePages,
		zeroFreePages: a.zeroFreePages,
		peakAllocated: a.peakAllocated,
		tagPages:      a.tagPages,

		lifoLen: a.lifoLen,

		ReclaimedPages:  a.ReclaimedPages,
		CompactedBlocks: a.CompactedBlocks,
		MovedFrames:     a.MovedFrames,
		FailedMoves:     a.FailedMoves,
	}
}

// HeapBytes estimates the heap footprint of the allocator's tables. The
// per-chunk occupancy slice is left out, like the other KB-scale state:
// counting it would change the snapshot cache's byte accounting, and with
// it the cache's evictions and its snapshot_cache_bytes counter.
func (a *Allocator) HeapBytes() int64 {
	return a.frames.HeapBytes() + a.next.HeapBytes() + a.prev.HeapBytes() +
		a.zeroBits.HeapBytes() + a.fileLIFO.HeapBytes()
}

// COWDirtyChunks returns the number of chunk materializations the
// allocator's tables have performed.
func (a *Allocator) COWDirtyChunks() int64 {
	return a.frames.DirtyChunks() + a.next.DirtyChunks() + a.prev.DirtyChunks() +
		a.zeroBits.DirtyChunks() + a.fileLIFO.DirtyChunks()
}

// SetCOWCounter mirrors chunk materializations in every table into c
// (nil-safe; nil detaches).
func (a *Allocator) SetCOWCounter(c *trace.Counter) {
	a.frames.SetDirtyCounter(c)
	a.next.SetDirtyCounter(c)
	a.prev.SetDirtyCounter(c)
	a.zeroBits.SetDirtyCounter(c)
	a.fileLIFO.SetDirtyCounter(c)
}

// Release retires the allocator's tables, recycling their privately owned
// chunks into the table family's pool (see cow.Table.Release). The
// allocator is unusable afterwards; call only when its machine is being
// torn down.
func (a *Allocator) Release() {
	a.frames.Release()
	a.next.Release()
	a.prev.Release()
	a.zeroBits.Release()
	a.fileLIFO.Release()
}
