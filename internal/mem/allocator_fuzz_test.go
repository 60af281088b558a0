package mem

import (
	"fmt"
	"slices"
	"testing"

	"hawkeye/internal/sim"
)

// FuzzAllocatorOps decodes random operation sequences against a small
// allocator and checks its invariants after every operation: the free
// lists, zero bitmap and per-chunk occupancy counts (CheckConsistency) and
// the FMFI range. Every Compact is also run on a Clone of the pre-state by
// referenceCompact, the per-frame-scan compactor the occupancy counts
// replaced; both must report the same CompactResult and leave identical
// allocators. Every FreeHugeFrames is checked the same way against 512
// ascending order-0 Frees on a Clone. A Seal+Fork mid-sequence continues on the fork, and the
// sealed parent must end the sequence unchanged.
//
// Input layout: one config byte (bit 3 picks an 8 or 16 MB machine, bits
// 0-2 the mover's refusal rate), then 3-byte operations (op, x, y).
func FuzzAllocatorOps(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runFuzzProgram(t, data)
	})
}

// Operation codes of a FuzzAllocatorOps program.
const (
	opAlloc    = iota // Alloc(x%11, pref y&1, tag (y>>1)%3) with reclaim
	opAllocOpp        // the same through AllocOpportunistic
	opFree            // Free live block x, dirty = y&1
	opRetag           // y&1: anon<->kernel on live order-0 block x; else file frame -> kernel
	opDrain           // DrainAllFile
	opPressure        // y%4+1 anon Allocs at order x%10 (reclaiming page cache)
	opPrezero         // PopNonZeroBlockUpTo(x%11), reinsert zeroed if y&1
	opCompact         // Compact(x%8+1), checked against referenceCompact
	opFork            // Seal, then continue on a Fork
	opFragment        // fill free memory with order-0 anon, keep 1 in x%7+2
	opMark            // MarkDirty (y&1) or MarkZeroedBlock on live block x
	opFreeHuge        // FreeHugeFrames on a live anon order-9 block from x, dirty mask from y
	numOps
)

var fuzzTags = [3]Tag{TagAnon, TagFile, TagKernel}

// fuzzMover is the Mover of FuzzAllocatorOps and the owner of its live
// allocations. It moves only order-0 allocations — moving a frame of a
// larger block would scatter the block — and refuses a further share of
// moves chosen by a hash of (old, new), so a copy handed to the reference
// compactor makes exactly the same choices.
type fuzzMover struct {
	live   []Block
	index  map[FrameID]int // live head -> position in live
	refuse uint64          // refuse 1 in refuse moves (0 = never)
}

func newFuzzMover(refuse uint64) *fuzzMover {
	return &fuzzMover{index: map[FrameID]int{}, refuse: refuse}
}

func (m *fuzzMover) clone() *fuzzMover {
	c := &fuzzMover{live: slices.Clone(m.live), index: make(map[FrameID]int, len(m.index)), refuse: m.refuse}
	for k, v := range m.index {
		c.index[k] = v
	}
	return c
}

func (m *fuzzMover) MoveFrame(old, new FrameID) bool {
	i, ok := m.index[old]
	if !ok || m.live[i].Order != 0 {
		return false
	}
	if m.refuse != 0 && (uint64(old)*0x9e3779b97f4a7c15^uint64(new))%m.refuse == 0 {
		return false
	}
	delete(m.index, old)
	m.index[new] = i
	m.live[i].Head = new
	return true
}

func (m *fuzzMover) track(b Block) {
	m.index[b.Head] = len(m.live)
	m.live = append(m.live, b)
}

// untrack removes live[i], moving the last entry into its place.
func (m *fuzzMover) untrack(i int) Block {
	b := m.live[i]
	last := len(m.live) - 1
	m.live[i] = m.live[last]
	m.index[m.live[i].Head] = i
	m.live = m.live[:last]
	delete(m.index, b.Head)
	return b
}

func runFuzzProgram(t *testing.T, data []byte) {
	cfg, prog := data[0], data[1:]
	size := Bytes(8) << 20
	if cfg&8 != 0 {
		size = 16 << 20
	}
	m := newFuzzMover(uint64(cfg & 7))
	a := NewAllocator(size)
	a.SetMover(m)
	type sealed struct{ parent, copy *Allocator }
	var forks []sealed
	for step := 0; step+3 <= len(prog) && step < 3*256; step += 3 {
		op, x, y := int(prog[step])%numOps, int(prog[step+1]), int(prog[step+2])
		switch op {
		case opAlloc, opAllocOpp:
			order, pref, tag := x%(MaxOrder+1), ZeroPref(y&1), fuzzTags[(y>>1)%3]
			var blk Block
			ok := false
			if op == opAlloc {
				var err error
				blk, err = a.Alloc(order, pref, tag)
				ok = err == nil
			} else {
				blk, ok = a.AllocOpportunistic(order, pref, tag)
			}
			// Page cache is freed only by reclaim, as in the experiments.
			if ok && tag != TagFile {
				m.track(blk)
			}
		case opFree:
			if len(m.live) > 0 {
				b := m.untrack(x % len(m.live))
				a.Free(b.Head, b.Order, y&1 != 0)
			}
		case opRetag:
			if y&1 != 0 {
				if len(m.live) == 0 {
					break
				}
				b := m.live[x%len(m.live)]
				if b.Order != 0 {
					break
				}
				switch a.FrameTag(b.Head) {
				case TagAnon:
					a.RetagFrame(b.Head, TagKernel)
				case TagKernel:
					a.RetagFrame(b.Head, TagAnon)
				}
				break
			}
			// Page cache that becomes a pinned kernel allocation.
			n := FrameID(a.TotalPages())
			start := FrameID(x) * n / 256
			for k := FrameID(0); k < n; k++ {
				if id := (start + k) % n; a.FrameTag(id) == TagFile {
					a.RetagFrame(id, TagKernel)
					m.track(Block{Head: id})
					break
				}
			}
		case opDrain:
			a.DrainAllFile()
		case opPressure:
			for k := 0; k <= y%4; k++ {
				if blk, err := a.Alloc(x%(HugeOrder+1), PreferZero, TagAnon); err == nil {
					m.track(blk)
				}
			}
		case opPrezero:
			if head, order, ok := a.PopNonZeroBlockUpTo(x % (MaxOrder + 1)); ok {
				if y&1 != 0 {
					a.InsertZeroBlock(head, order)
				} else {
					a.InsertNonZeroBlock(head, order)
				}
			}
		case opCompact:
			want := x%8 + 1
			ref, rm := a.Clone(), m.clone()
			ref.SetMover(rm)
			wantRes := referenceCompact(ref, want)
			got := a.Compact(want)
			if got != wantRes {
				t.Fatalf("op %d: Compact(%d) = %+v, reference scan %+v", step/3, want, got, wantRes)
			}
			if d := diffAllocators(a, ref); d != "" {
				t.Fatalf("op %d: Compact(%d) state differs from reference scan: %s", step/3, want, d)
			}
			if !slices.Equal(m.live, rm.live) {
				t.Fatalf("op %d: Compact(%d) migrated different frames than the reference scan", step/3, want)
			}
		case opFork:
			if len(forks) == 4 {
				break
			}
			a.Seal()
			forks = append(forks, sealed{a, a.Clone()})
			a = a.Fork()
			a.SetMover(m)
		case opFragment:
			keep := x%7 + 2
			var got []Block
			for {
				blk, ok := a.AllocOpportunistic(0, ZeroPref(y&1), TagAnon)
				if !ok {
					break
				}
				got = append(got, blk)
			}
			for i, blk := range got {
				if i%keep == 0 {
					m.track(blk)
				} else {
					a.Free(blk.Head, 0, true)
				}
			}
		case opMark:
			if len(m.live) == 0 {
				break
			}
			b := m.live[x%len(m.live)]
			if y&1 != 0 {
				a.MarkDirty(b.Head)
			} else {
				a.MarkZeroedBlock(b.Head, b.Order)
			}
		case opFreeHuge:
			i := -1
			for k := range m.live {
				j := (x + k) % len(m.live)
				if b := m.live[j]; b.Order == HugeOrder && a.FrameTag(b.Head) == TagAnon {
					i = j
					break
				}
			}
			if i < 0 {
				break
			}
			b := m.untrack(i)
			dirty := fuzzDirtyMask(x, y)
			ref := a.Clone()
			for f := 0; f < HugePages; f++ {
				ref.Free(b.Head+FrameID(f), 0, dirty[f>>6]&(1<<(f&63)) != 0)
			}
			a.FreeHugeFrames(b.Head, &dirty)
			if d := diffObservable(a, ref); d != "" {
				t.Fatalf("op %d: FreeHugeFrames(%d) differs from 512 order-0 frees: %s", step/3, b.Head, d)
			}
		}
		if msg := a.CheckConsistency(); msg != "" {
			t.Fatalf("op %d (code %d): %s", step/3, op, msg)
		}
		if fm := a.FMFI(HugeOrder); fm < 0 || fm > 1 {
			t.Fatalf("op %d: FMFI %v out of [0,1]", step/3, fm)
		}
	}
	for i, s := range forks {
		if d := diffAllocators(s.parent, s.copy); d != "" {
			t.Fatalf("sealed parent %d changed after forking: %s", i, d)
		}
	}
}

// referenceCompact is Compact with its original chunk selection: it reads
// all 512 frame tags of every chunk it reaches instead of the chunk's
// occupancy counts. Chunk order, skip rules and results are otherwise the
// same; it leaves tracing to the caller.
func referenceCompact(a *Allocator, want int) CompactResult {
	var res CompactResult
	if want <= 0 || a.mover == nil {
		return res
	}
	movedBefore := a.MovedFrames
	chunk := FrameID(HugePages)
	for base := FrameID(0); base+chunk <= FrameID(a.totalPages) && res.BlocksBuilt < want; base += chunk {
		res.Scanned++
		free, movable := 0, 0
		ok := true
		for i := base; i < base+chunk && ok; i++ {
			switch a.frames.Get(int(i)).tag {
			case TagFree:
				free++
			case TagAnon:
				movable++
			default:
				ok = false
			}
		}
		if !ok || movable == 0 || free == 0 || movable > HugePages*3/4 {
			continue
		}
		if a.evacuate(base, chunk) {
			res.BlocksBuilt++
			a.CompactedBlocks++
		}
	}
	res.Moved = a.MovedFrames - movedBefore
	return res
}

// fuzzDirtyMask derives the dirty mask of an opFreeHuge from its operands:
// y%4 picks all clean, all dirty, random words, or sparse words (half of
// them clean, so some left halves of every order stay zero-class).
func fuzzDirtyMask(x, y int) HugeMask {
	var m HugeMask
	r := sim.NewRand(uint64(x<<8 | y))
	for w := range m {
		switch y % 4 {
		case 1:
			m[w] = ^uint64(0)
		case 2:
			m[w] = r.Uint64()
		case 3:
			if r.Intn(2) == 0 {
				m[w] = r.Uint64() & r.Uint64() & r.Uint64()
			}
		}
	}
	return m
}

// diffAllocators describes the first difference between two allocators'
// complete state — scalars, free lists, occupancy counts and every
// per-frame table entry — or returns "".
func diffAllocators(a, b *Allocator) string { return diffState(a, b, false) }

// diffObservable is diffAllocators restricted to state a later operation
// can read: a frame's order, class and list links count only while it
// heads a free block, since insertFree rewrites them before any read.
func diffObservable(a, b *Allocator) string { return diffState(a, b, true) }

func diffState(a, b *Allocator, observable bool) string {
	type scalars struct {
		heads                                  [MaxOrder + 1][2]FrameID
		counts                                 [MaxOrder + 1][2]int64
		total, free, zeroFree, peak, reclaimed Pages
		tagPages                               [5]Pages
		lifoLen                                int
		compacted, moved, failed               int64
	}
	sc := func(x *Allocator) scalars {
		return scalars{x.heads, x.counts, x.totalPages, x.freePages, x.zeroFreePages, x.peakAllocated,
			x.ReclaimedPages, x.tagPages, x.lifoLen, x.CompactedBlocks, x.MovedFrames, x.FailedMoves}
	}
	if sa, sb := sc(a), sc(b); sa != sb {
		return fmt.Sprintf("scalars %+v vs %+v", sa, sb)
	}
	if !slices.Equal(a.occ, b.occ) {
		return "per-chunk occupancy differs"
	}
	type frameState struct {
		f          frame
		next, prev int32
	}
	state := func(x *Allocator, i int) frameState {
		s := frameState{x.frames.Get(i), x.next.Get(i), x.prev.Get(i)}
		if observable && !s.f.freeHead {
			s = frameState{f: frame{tag: s.f.tag}}
		}
		return s
	}
	for i := 0; i < int(a.totalPages); i++ {
		if sa, sb := state(a, i), state(b, i); sa != sb {
			return fmt.Sprintf("frame %d: %+v vs %+v", i, sa, sb)
		}
	}
	for w := 0; w < a.zeroBits.Len(); w++ {
		if a.zeroBits.Get(w) != b.zeroBits.Get(w) {
			return fmt.Sprintf("zero bitmap word %d: %#x vs %#x", w, a.zeroBits.Get(w), b.zeroBits.Get(w))
		}
	}
	for i := 0; i < a.lifoLen; i++ {
		if a.fileLIFO.Get(i) != b.fileLIFO.Get(i) {
			return fmt.Sprintf("page-cache LIFO slot %d: %d vs %d", i, a.fileLIFO.Get(i), b.fileLIFO.Get(i))
		}
	}
	return ""
}

// fuzzOp encodes one operation of a FuzzAllocatorOps program.
func fuzzOp(op, x, y int) []byte { return []byte{byte(op), byte(x), byte(y)} }

// fuzzSeeds returns the seed corpus, shaped after the allocator unit tests.
func fuzzSeeds() [][]byte {
	prog := func(cfg byte, ops ...[]byte) []byte {
		return append([]byte{cfg}, slices.Concat(ops...)...)
	}
	// TestInvariantFreeAccounting: random alloc/free churn over both zero
	// preferences and all three tags, compacted now and then.
	churn := []byte{8 | 3}
	r := sim.NewRand(99)
	for i := 0; i < 200; i++ {
		switch {
		case i%40 == 39:
			churn = append(churn, fuzzOp(opCompact, r.Intn(8), 0)...)
		case r.Float64() < 0.55:
			churn = append(churn, fuzzOp(opAlloc, r.Intn(HugeOrder+1), r.Intn(6))...)
		default:
			churn = append(churn, fuzzOp(opFree, r.Intn(256), r.Intn(2))...)
		}
	}
	return [][]byte{
		// TestCompactionRebuildsHugeBlocks: 1-in-8 sparse anon, compacted
		// incrementally.
		prog(8, fuzzOp(opFragment, 6, 0), fuzzOp(opCompact, 3, 0), fuzzOp(opCompact, 3, 0), fuzzOp(opCompact, 7, 0)),
		// TestCompactionSkipsPinned: every move refused.
		prog(1, fuzzOp(opFragment, 6, 0), fuzzOp(opCompact, 3, 0)),
		// Moves refused at random, with mixed-order anon blocks pinning
		// their chunks.
		prog(8|5, fuzzOp(opAlloc, 3, 0), fuzzOp(opAlloc, 0, 0), fuzzOp(opAlloc, 5, 1),
			fuzzOp(opFragment, 2, 1), fuzzOp(opCompact, 7, 0), fuzzOp(opFree, 0, 1), fuzzOp(opCompact, 7, 0)),
		// The 3/4-anon skip boundary: a chunk with 384 anon frames is
		// evacuated (and fails on the pinned blocks), one with 385 is not.
		prog(0, fuzzOp(opAlloc, 8, 0), fuzzOp(opAlloc, 7, 0), fuzzOp(opCompact, 0, 0),
			fuzzOp(opAlloc, 0, 0), fuzzOp(opCompact, 0, 0)),
		// TestFileReclaimUnderPressure / TestDrainAllFileMatchesLoop: drain
		// to page cache, pin some of it, then allocate under pressure.
		prog(8, fuzzOp(opAlloc, 4, 0), fuzzOp(opFree, 0, 1), fuzzOp(opDrain, 0, 0),
			fuzzOp(opRetag, 10, 0), fuzzOp(opRetag, 200, 0), fuzzOp(opPressure, HugeOrder, 3),
			fuzzOp(opPressure, 0, 3), fuzzOp(opAlloc, 0, 4), fuzzOp(opFragment, 0, 0), fuzzOp(opCompact, 7, 0)),
		// TestPreZeroCycle: dirty a huge block, pre-zero it piecewise.
		prog(0, fuzzOp(opAlloc, HugeOrder, 0), fuzzOp(opFree, 0, 1), fuzzOp(opPrezero, HugeOrder, 1),
			fuzzOp(opPrezero, 3, 1), fuzzOp(opPrezero, 10, 0), fuzzOp(opPrezero, 0, 1)),
		// Huge blocks freed page by page: all clean, all dirty, random and
		// sparse masks, with the order-9 buddy busy or free (an order-10
		// merge), before and after a fork.
		prog(0, fuzzOp(opAlloc, HugeOrder, 0), fuzzOp(opAlloc, HugeOrder, 1), fuzzOp(opAlloc, HugeOrder, 0),
			fuzzOp(opMark, 1, 1), fuzzOp(opFreeHuge, 0, 2), fuzzOp(opAlloc, 0, 1), fuzzOp(opFreeHuge, 1, 3),
			fuzzOp(opFork, 0, 0), fuzzOp(opFreeHuge, 0, 1), fuzzOp(opAlloc, HugeOrder, 1), fuzzOp(opFreeHuge, 0, 0)),
		// Fork mid-sequence, then compact, retag and free on the fork.
		prog(8, fuzzOp(opFragment, 5, 1), fuzzOp(opMark, 3, 1), fuzzOp(opFork, 0, 0), fuzzOp(opCompact, 2, 0),
			fuzzOp(opRetag, 1, 1), fuzzOp(opFree, 7, 0), fuzzOp(opFork, 0, 0), fuzzOp(opMark, 2, 0), fuzzOp(opCompact, 7, 0)),
		churn,
	}
}
