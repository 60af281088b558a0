// Package mem implements the physical-memory substrate of the simulator:
// a frame table and a binary buddy allocator whose free lists are split
// into zero-filled and non-zero lists (the mechanism behind HawkEye's
// asynchronous pre-zeroing, §3.1 of the paper), plus the free-memory
// fragmentation index (FMFI) used by Ingens, page-cache style reclaimable
// filler pages used to fragment memory in experiments, and a compaction
// pass that relocates movable frames to rebuild contiguity.
package mem

import "fmt"

// PageSize is the base page size in bytes (x86-64 4 KB).
const PageSize = 4096

// HugeOrder is the buddy order of a 2 MB huge page (512 base pages).
const HugeOrder = 9

// HugePages is the number of base pages per huge page.
const HugePages = 1 << HugeOrder

// HugeSize is the huge page size in bytes.
const HugeSize = PageSize * HugePages

// MaxOrder is the largest buddy order managed by the allocator (4 MB blocks),
// mirroring Linux's MAX_ORDER-1 = 10 on x86.
const MaxOrder = 10

// FrameID identifies a physical base-page frame. The zero frame is valid;
// NoFrame is the sentinel for "no frame".
type FrameID int64

// NoFrame is the nil FrameID.
const NoFrame FrameID = -1

// Tag describes what a frame is used for. It determines movability during
// compaction and reclaimability under memory pressure.
type Tag uint8

// Frame usage tags.
const (
	TagFree   Tag = iota // on a buddy free list
	TagAnon              // anonymous application memory (movable)
	TagFile              // page-cache style (reclaimable, fragments memory)
	TagKernel            // unmovable kernel allocation
	TagZero              // the canonical shared zero page
)

func (t Tag) String() string {
	switch t {
	case TagFree:
		return "free"
	case TagAnon:
		return "anon"
	case TagFile:
		return "file"
	case TagKernel:
		return "kernel"
	case TagZero:
		return "zero"
	default:
		return fmt.Sprintf("tag(%d)", uint8(t))
	}
}

// frame is the per-frame metadata. Kept small: one entry per simulated 4 KB.
// The per-frame "content is all-zero" bit lives in the allocator's zeroBits
// bitmap rather than here, so block-granular zero checks are word operations.
type frame struct {
	tag       Tag
	order     uint8 // when head of a free block: its order
	freeHead  bool  // head of a free buddy block
	freeClass uint8 // when head of a free block: which split list it is on
}

// chunkOcc counts the free and anonymous frames of one 2 MB chunk. The
// allocator keeps one per chunk, current at every frame-tag transition, so
// compaction picks candidate chunks from two counters instead of reading
// 512 frame tags. A chunk holds at most 512 frames, so uint16 suffices.
type chunkOcc struct {
	free, anon uint16
}

// add moves d frames into (d > 0) or out of (d < 0) the count for tag t.
// Tags other than free and anon are not counted.
func (o *chunkOcc) add(t Tag, d int) {
	switch t {
	case TagFree:
		o.free += uint16(d)
	case TagAnon:
		o.anon += uint16(d)
	}
}

// HugeMask is a bitmap over the frames of one huge block: bit i of word
// i/64 stands for frame head+i.
type HugeMask [HugePages / 64]uint64

// Set marks frame head+i.
func (m *HugeMask) Set(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// allSet reports whether every bit of the buddy-aligned 2^order-frame
// block at offset i is set.
func (m *HugeMask) allSet(i, order int) bool {
	if order < 6 {
		mask := (uint64(1)<<(1<<order) - 1) << (uint(i) & 63)
		return m[i>>6]&mask == mask
	}
	for w := i >> 6; w < (i+1<<order)>>6; w++ {
		if m[w] != ^uint64(0) {
			return false
		}
	}
	return true
}

// chunkOf returns the index of the 2 MB chunk holding frame id.
func chunkOf(id FrameID) int { return int(id >> HugeOrder) }

// chunkBase returns the first frame of chunk c.
func chunkBase(c int) FrameID { return FrameID(c) << HugeOrder }

// The quantity types below keep the simulator's unit conversions honest:
// page counts, region counts and byte sizes are distinct defined types, and
// the only place the 4 KB / 2 MB geometry may appear is in the named helper
// methods here (enforced by the unitsafety analyzer in cmd/hawkeye-lint).

// Pages counts 4 KB base pages.
type Pages int64

// Regions counts 2 MB huge-page regions (512 base pages).
type Regions int64

// Bytes is a memory size in bytes.
type Bytes int64

// PagesPerRegion is the base-page span of one huge region, as a page count.
const PagesPerRegion Pages = HugePages

// RegionBytes is the byte size of one huge region.
const RegionBytes Bytes = HugeSize

// Bytes converts a page count to a byte size.
//
//lint:allow unitsafety canonical geometry helper: pages -> bytes lives here
func (p Pages) Bytes() Bytes { return Bytes(p) * PageSize }

// Regions converts a page count to whole regions (rounding down).
//
//lint:allow unitsafety canonical geometry helper: pages -> regions lives here
func (p Pages) Regions() Regions { return Regions(p >> HugeOrder) }

// Pages converts a byte size (rounded up) to base pages.
//
//lint:allow unitsafety canonical geometry helper: bytes -> pages lives here
func (b Bytes) Pages() Pages { return Pages((b + PageSize - 1) / PageSize) }

// Regions converts a byte size (rounded up) to huge regions.
//
//lint:allow unitsafety canonical geometry helper: bytes -> regions lives here
func (b Bytes) Regions() Regions { return Regions((b + RegionBytes - 1) / RegionBytes) }

// Pages converts a region count to base pages.
//
//lint:allow unitsafety canonical geometry helper: regions -> pages lives here
func (r Regions) Pages() Pages { return Pages(r) << HugeOrder }

// Bytes converts a region count to a byte size.
//
//lint:allow unitsafety canonical geometry helper: regions -> bytes lives here
func (r Regions) Bytes() Bytes { return Bytes(r) * HugeSize }
