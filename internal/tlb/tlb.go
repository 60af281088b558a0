// Package tlb models the address-translation hardware the paper measures:
// a two-level TLB with separate L1 arrays for 4 KB and 2 MB entries and a
// unified L2 (the Haswell-EP configuration of the evaluation platform), a
// page-walk-cost model in which access locality determines how much of the
// walk hits the page-walk caches, and the PMU counters of Table 4
// (DTLB_*_WALK_DURATION / CPU_CLK_UNHALTED) from which MMU overhead is
// computed as walk cycles over total cycles.
package tlb

import (
	"hawkeye/internal/mem"
	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
)

// Config describes the simulated TLB hierarchy and walk-cost model.
type Config struct {
	L1BaseEntries int // 4 KB L1 entries
	L1BaseAssoc   int
	L1HugeEntries int // 2 MB L1 entries
	L1HugeAssoc   int
	L2Entries     int // unified second-level entries
	L2Assoc       int

	// L2HitCycles is the penalty for an L1 miss that hits in the L2 TLB.
	L2HitCycles int
	// WalkCyclesMin is the cost of a page walk served almost entirely from
	// page-walk caches and the data caches (high-locality access patterns).
	WalkCyclesMin int
	// WalkCyclesMax is the cost of a walk that misses the paging-structure
	// caches and goes to DRAM (random access over a large footprint).
	WalkCyclesMax int
	// HugeWalkDiscount scales walk cost for 2 MB mappings (one less level).
	HugeWalkDiscount float64
	// NestedMultiplier scales walk cost under nested paging (EPT 2-D walks).
	NestedMultiplier float64
}

// HaswellEP returns the evaluation platform of the paper: L1 64×4K (4-way)
// + 8×2M (full), unified L2 1024 entries (8-way).
func HaswellEP() Config {
	return Config{
		L1BaseEntries:    64,
		L1BaseAssoc:      4,
		L1HugeEntries:    8,
		L1HugeAssoc:      8,
		L2Entries:        1024,
		L2Assoc:          8,
		L2HitCycles:      7,
		WalkCyclesMin:    25,
		WalkCyclesMax:    160,
		HugeWalkDiscount: 0.7,
		NestedMultiplier: 3.5,
	}
}

// entryKey packs (valid, pid, huge, page) into one comparable word:
// bit 63 = valid, bits 62..43 = pid, bit 42 = huge, bits 41..0 = page.
type entryKey uint64

func makeKey(pid int32, page int64, huge bool) entryKey {
	if uint64(page) >= 1<<42 || uint32(pid) >= 1<<20 {
		// 42 bits of page number cover 16 TiB of virtual address space per
		// process and 20 bits one million processes — far beyond anything
		// the simulator builds. Catch overflow loudly rather than alias.
		panic("tlb: page or pid out of key range")
	}
	k := entryKey(1)<<63 | entryKey(pid)<<43 | entryKey(page)
	if huge {
		k |= 1 << 42
	}
	return k
}

func (k entryKey) valid() bool { return k != 0 }
func (k entryKey) pid() int32  { return int32(k >> 43 & (1<<20 - 1)) }
func (k entryKey) huge() bool  { return k&(1<<42) != 0 }
func (k entryKey) page() int64 { return int64(k & (1<<42 - 1)) }

// setAssoc is a set-associative array with LRU replacement. The set count is
// always a power of two (like real TLB hardware), so indexing is a mask
// instead of a modulo. Tags and recency stamps live in two parallel flat
// arrays rather than an array of pairs: a probe's tag scan — the part every
// lookup executes — then walks contiguous 8-byte keys (a whole 8-way set in
// one cache line) and the stamps are only touched on a hit (one store) or
// during victim selection on a miss.
//
// Invariant: an invalid slot (zero key; every valid key has its top bit set)
// always has lru == 0, and a valid slot always has lru >= 1 (the tick
// pre-increments before stamping). Victim selection is therefore a single
// min-lru scan: among invalid slots the strict < comparison picks the first
// one, and any invalid slot beats any valid one — exactly the "first
// invalid, else least recently used" policy.
type setAssoc struct {
	keys  []entryKey // nsets × assoc, set i at [i*assoc, (i+1)*assoc)
	lrus  []uint64   // recency stamps, same layout
	mask  uint64     // nsets - 1
	assoc int
	tick  uint64
}

func newSetAssoc(entries, assoc int) *setAssoc {
	if entries < assoc {
		assoc = entries
	}
	nsets := entries / assoc
	if nsets < 1 {
		nsets = 1
	}
	// Round down to a power of two so indexing can mask. Hardware TLB
	// geometries (and every Config in this repo) are already powers of two;
	// odd configs lose at most half their sets.
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	return &setAssoc{
		assoc: assoc,
		mask:  uint64(nsets - 1),
		keys:  make([]entryKey, nsets*assoc),
		lrus:  make([]uint64, nsets*assoc),
	}
}

// setBase returns the index of the first slot of page's set.
func (s *setAssoc) setBase(page int64) int {
	return int(uint64(page)&s.mask) * s.assoc
}

// lookup probes without inserting.
func (s *setAssoc) lookup(pid int32, page int64, huge bool) bool {
	hit, _ := s.probe(makeKey(pid, page, huge), page)
	return hit
}

// insert fills the entry, evicting LRU. probe+fill is the fused equivalent;
// this form stays for callers that already know the lookup missed.
func (s *setAssoc) insert(pid int32, page int64, huge bool) {
	s.tick++
	key := makeKey(pid, page, huge)
	base := s.setBase(page)
	victim := base
	for i := base; i < base+s.assoc; i++ {
		if !s.keys[i].valid() {
			victim = i
			break
		}
		if s.lrus[i] < s.lrus[victim] {
			victim = i
		}
	}
	s.keys[victim] = key
	s.lrus[victim] = s.tick
}

// probe is lookup fused with victim selection, answering the lookup and, on
// a miss, reporting the slot a subsequent insert would evict. The victim is
// valid as long as the set is not mutated between probe and fill, which
// holds inside Access: the only array touched in between is a different
// level of the hierarchy. Victim choice matches insert exactly — the
// lru==0-when-invalid invariant (see entry) makes the min-lru scan pick the
// first invalid entry when one exists.
func (s *setAssoc) probe(key entryKey, page int64) (hit bool, victim int) {
	s.tick++
	if s.assoc == 4 {
		idx := s.setBase(page)
		keys := s.keys[idx : idx+4 : idx+4]
		if keys[0] == key {
			s.lrus[idx] = s.tick
			return true, 0
		}
		if keys[1] == key {
			s.lrus[idx+1] = s.tick
			return true, 0
		}
		if keys[2] == key {
			s.lrus[idx+2] = s.tick
			return true, 0
		}
		if keys[3] == key {
			s.lrus[idx+3] = s.tick
			return true, 0
		}
		lrus := s.lrus[idx : idx+4 : idx+4]
		best := lrus[0]
		if lrus[1] < best {
			best, victim = lrus[1], 1
		}
		if lrus[2] < best {
			best, victim = lrus[2], 2
		}
		if lrus[3] < best {
			victim = 3
		}
		return false, victim
	}
	if s.assoc == 8 {
		idx := s.setBase(page)
		keys := s.keys[idx : idx+8 : idx+8]
		for i := range keys {
			if keys[i] == key {
				s.lrus[idx+i] = s.tick
				return true, 0
			}
		}
		lrus := s.lrus[idx : idx+8 : idx+8]
		best := lrus[0]
		if lrus[1] < best {
			best, victim = lrus[1], 1
		}
		if lrus[2] < best {
			best, victim = lrus[2], 2
		}
		if lrus[3] < best {
			best, victim = lrus[3], 3
		}
		if lrus[4] < best {
			best, victim = lrus[4], 4
		}
		if lrus[5] < best {
			best, victim = lrus[5], 5
		}
		if lrus[6] < best {
			best, victim = lrus[6], 6
		}
		if lrus[7] < best {
			victim = 7
		}
		return false, victim
	}
	base := s.setBase(page)
	bestLRU := ^uint64(0)
	for i := 0; i < s.assoc; i++ {
		if s.keys[base+i] == key {
			s.lrus[base+i] = s.tick
			return true, 0
		}
		if s.lrus[base+i] < bestLRU {
			bestLRU = s.lrus[base+i]
			victim = i
		}
	}
	return false, victim
}

// fill installs the entry at the victim slot a prior probe chose, with the
// same tick accounting insert performs.
func (s *setAssoc) fill(victim int, key entryKey, page int64) {
	s.tick++
	base := s.setBase(page)
	s.keys[base+victim] = key
	s.lrus[base+victim] = s.tick
}

// touchRepeats applies n guaranteed L1 hits to an entry in closed form: n
// scalar lookups would each advance the tick once and restamp the entry's
// lru with it, leaving only the final stamp observable.
func (s *setAssoc) touchRepeats(key entryKey, page int64, n int64) {
	s.tick += uint64(n)
	base := s.setBase(page)
	for i := 0; i < s.assoc; i++ {
		if s.keys[base+i] == key {
			s.lrus[base+i] = s.tick
			return
		}
	}
	panic("tlb: touchRepeats on absent entry")
}

// invalidatePID drops every entry of a process. A specialized loop (rather
// than a callback-per-entry matcher) keeps this allocation-free and
// branch-predictable — it runs on every process exit and large unmap.
func (s *setAssoc) invalidatePID(pid int32) {
	for i := range s.keys {
		k := s.keys[i]
		if k.valid() && k.pid() == pid {
			s.keys[i] = 0
			s.lrus[i] = 0
		}
	}
}

// invalidateRange drops a process's base entries with page in [lo, hi) and
// its huge entries with page == region.
func (s *setAssoc) invalidateRange(pid int32, lo, hi, region int64) {
	for i := range s.keys {
		k := s.keys[i]
		if !k.valid() || k.pid() != pid {
			continue
		}
		if k.huge() {
			if k.page() == region {
				s.keys[i] = 0
				s.lrus[i] = 0
			}
		} else if p := k.page(); p >= lo && p < hi {
			s.keys[i] = 0
			s.lrus[i] = 0
		}
	}
}

// Outcome classifies one translation.
type Outcome int

// Translation outcomes.
const (
	HitL1 Outcome = iota
	HitL2
	Miss
)

// TLB is the simulated two-level TLB.
type TLB struct {
	cfg    Config
	l1Base *setAssoc
	l1Huge *setAssoc
	l2     *setAssoc

	Lookups int64
	L1Hits  int64
	L2Hits  int64
	Misses  int64

	// Tracing hooks (nil when disabled). Only the invalidation paths emit;
	// Access/AccessRun — the translation hot path — stay untouched.
	tr           *trace.Recorder
	ctrShootdown *trace.Counter
}

// SetTrace attaches shootdown tracing (nil detaches).
func (t *TLB) SetTrace(r *trace.Recorder) {
	t.tr = r
	t.ctrShootdown = r.Counter("tlb_shootdown")
}

// New creates a TLB with the given configuration.
func New(cfg Config) *TLB {
	return &TLB{
		cfg:    cfg,
		l1Base: newSetAssoc(cfg.L1BaseEntries, cfg.L1BaseAssoc),
		l1Huge: newSetAssoc(cfg.L1HugeEntries, cfg.L1HugeAssoc),
		l2:     newSetAssoc(cfg.L2Entries, cfg.L2Assoc),
	}
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// clone deep-copies a set-associative array, including the LRU tick, so the
// copy's future victim choices match the original's exactly.
func (s *setAssoc) clone() *setAssoc {
	return &setAssoc{
		keys:  append([]entryKey(nil), s.keys...),
		lrus:  append([]uint64(nil), s.lrus...),
		mask:  s.mask,
		assoc: s.assoc,
		tick:  s.tick,
	}
}

// Clone returns a deep copy of the TLB: every entry of every level, the LRU
// ticks and the hit/miss counters. Future accesses on the clone hit, miss and
// evict exactly as they would have on the original; mutating either side
// never affects the other. Tracing hooks are not carried over — the new
// machine re-attaches them with SetTrace.
func (t *TLB) Clone() *TLB {
	return &TLB{
		cfg:     t.cfg,
		l1Base:  t.l1Base.clone(),
		l1Huge:  t.l1Huge.clone(),
		l2:      t.l2.clone(),
		Lookups: t.Lookups,
		L1Hits:  t.L1Hits,
		L2Hits:  t.L2Hits,
		Misses:  t.Misses,
	}
}

// Access translates (pid, page) where page is a VPN for base mappings or a
// region index for huge mappings, updating the hierarchy. Probe and fill are
// fused so each array is scanned once per access: the victim found during
// the probe is the one insert would pick, because nothing mutates the array
// between the two steps.
func (t *TLB) Access(pid int32, page int64, huge bool) Outcome {
	t.Lookups++
	key := makeKey(pid, page, huge)
	l1 := t.l1Base
	if huge {
		l1 = t.l1Huge
	}
	l1Hit, l1Victim := l1.probe(key, page)
	if l1Hit {
		t.L1Hits++
		return HitL1
	}
	l2Hit, l2Victim := t.l2.probe(key, page)
	if l2Hit {
		t.L2Hits++
		l1.fill(l1Victim, key, page)
		return HitL2
	}
	t.Misses++
	l1.fill(l1Victim, key, page)
	t.l2.fill(l2Victim, key, page)
	return Miss
}

// AccessRun translates count back-to-back accesses to the same (pid, page):
// the first goes through the full hierarchy like Access; the remaining
// count-1 repeats are then guaranteed L1 hits — the entry was just installed
// or refreshed and nothing can evict it in between — so their effect on the
// LRU state and the counters is applied in closed form. The resulting TLB
// state and counters are bit-identical to count scalar Access calls. It
// returns the first access's outcome and the number of closed-form repeats.
func (t *TLB) AccessRun(pid int32, page int64, huge bool, count int64) (first Outcome, repeats int64) {
	first = t.Access(pid, page, huge)
	repeats = count - 1
	if repeats <= 0 {
		return first, 0
	}
	l1 := t.l1Base
	if huge {
		l1 = t.l1Huge
	}
	l1.touchRepeats(makeKey(pid, page, huge), page, repeats)
	t.Lookups += repeats
	t.L1Hits += repeats
	return first, repeats
}

// MissRate reports misses/lookups so far.
func (t *TLB) MissRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Lookups)
}

// PagesPerRegion is the number of base-page VPNs covered by one 2 MB region
// — the single source of truth for region geometry, derived from the memory
// substrate rather than restated as a magic shift.
const PagesPerRegion = int64(mem.HugePages)

// InvalidateProcess flushes every entry of a process (exit, large unmap).
func (t *TLB) InvalidateProcess(pid int32) {
	t.l1Base.invalidatePID(pid)
	t.l1Huge.invalidatePID(pid)
	t.l2.invalidatePID(pid)
	t.ctrShootdown.Inc()
	t.tr.TLBShootdown(pid, -1)
}

// InvalidateRegion flushes the entries covering one 2 MB region of a
// process (promotion/demotion changed the mapping granularity).
func (t *TLB) InvalidateRegion(pid int32, region int64) {
	lo, hi := region*PagesPerRegion, (region+1)*PagesPerRegion
	t.l1Base.invalidateRange(pid, lo, hi, region)
	t.l1Huge.invalidateRange(pid, lo, hi, region)
	t.l2.invalidateRange(pid, lo, hi, region)
	t.ctrShootdown.Inc()
	t.tr.TLBShootdown(pid, region)
}

// Locality expresses how friendly an access pattern is to the page-walk
// caches; it interpolates the walk cost between WalkCyclesMin and Max.
// 0 = perfectly sequential/strided (prefetch + PWC absorb the walk),
// 1 = uniform random over a large footprint (walks go to DRAM).
type Locality float64

// WalkCycles returns the modelled cost in cycles of one page walk.
func (t *TLB) WalkCycles(loc Locality, huge, nested bool) sim.Cycles {
	if loc < 0 {
		loc = 0
	}
	if loc > 1 {
		loc = 1
	}
	c := sim.Cycles(float64(t.cfg.WalkCyclesMin) + float64(loc)*float64(t.cfg.WalkCyclesMax-t.cfg.WalkCyclesMin))
	if huge {
		c = c.Scale(t.cfg.HugeWalkDiscount)
	}
	if nested {
		c = c.Scale(t.cfg.NestedMultiplier)
	}
	return c
}
