package tlb

import (
	"fmt"
	"slices"
	"testing"

	"hawkeye/internal/sim"
	"hawkeye/internal/trace"
)

// FuzzTLBInvalidate runs random Access / AccessRun / InvalidateProcess /
// InvalidateRegion / Clone sequences on two TLBs: the one under test, and
// a reference whose flushed-owner memory is wiped before every flush, so
// it always scans. After every operation both must agree on every key,
// recency stamp and tick of all three arrays, on the hit/miss counters and
// on each access's outcome; at the end they must have traced the same
// shootdowns.
//
// Input layout: one config byte (bit 0 picks a tiny TLB with a 2-way L2,
// the generic probe path, instead of the Haswell-EP geometry), then 3-byte
// operations (op, x, y).
func FuzzTLBInvalidate(f *testing.F) {
	for _, seed := range tlbFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runTLBFuzzProgram(t, data)
	})
}

// Operation codes of a FuzzTLBInvalidate program. Pids are x%4, so flushes
// keep hitting the same few owners.
const (
	tlbOpAccess     = iota // Access(pid, page y, huge when x&4)
	tlbOpAccessRun         // AccessRun of the same, count x>>3%4+1
	tlbOpInvProcess        // InvalidateProcess(pid)
	tlbOpInvRegion         // InvalidateRegion(pid, region y%8)
	tlbOpClone             // continue on Clones of both TLBs
	tlbNumOps
)

// tlbFuzzConfig is a TLB small enough for fuzzed sequences to evict.
func tlbFuzzConfig() Config {
	c := HaswellEP()
	c.L1BaseEntries, c.L1BaseAssoc = 8, 4
	c.L1HugeEntries, c.L1HugeAssoc = 4, 4
	c.L2Entries, c.L2Assoc = 16, 2
	return c
}

func runTLBFuzzProgram(t *testing.T, data []byte) {
	cfg, prog := data[0], data[1:]
	c := HaswellEP()
	if cfg&1 != 0 {
		c = tlbFuzzConfig()
	}
	newTraced := func(tl *TLB) (*TLB, *trace.Recorder) {
		rec := trace.NewRecorder(&sim.Clock{}, trace.Config{})
		tl.SetTrace(rec)
		return tl, rec
	}
	got, gotRec := newTraced(New(c))
	ref, refRec := newTraced(New(c))
	var gotEvents, refEvents []trace.Event
	for step := 0; step+3 <= len(prog) && step < 3*512; step += 3 {
		op, x, y := int(prog[step])%tlbNumOps, int(prog[step+1]), int(prog[step+2])
		pid, huge := int32(x%4), x&4 != 0
		page := int64(y % 8) // a huge entry's region
		if !huge {
			// 32 base pages in each of regions 0-7.
			page = int64(y%8)*PagesPerRegion + int64(y/8)
		}
		switch op {
		case tlbOpAccess:
			if a, b := got.Access(pid, page, huge), ref.Access(pid, page, huge); a != b {
				t.Fatalf("op %d: Access(%d, %d, %v) = %v, reference %v", step/3, pid, page, huge, a, b)
			}
		case tlbOpAccessRun:
			n := int64(x>>3%4 + 1)
			a1, a2 := got.AccessRun(pid, page, huge, n)
			b1, b2 := ref.AccessRun(pid, page, huge, n)
			if a1 != b1 || a2 != b2 {
				t.Fatalf("op %d: AccessRun = %v/%d, reference %v/%d", step/3, a1, a2, b1, b2)
			}
		case tlbOpInvProcess:
			ref.forgetFlushes()
			got.InvalidateProcess(pid)
			ref.InvalidateProcess(pid)
		case tlbOpInvRegion:
			ref.forgetFlushes()
			got.InvalidateRegion(pid, int64(y%8))
			ref.InvalidateRegion(pid, int64(y%8))
		case tlbOpClone:
			gotEvents = append(gotEvents, gotRec.Events()...)
			refEvents = append(refEvents, refRec.Events()...)
			got, gotRec = newTraced(got.Clone())
			ref, refRec = newTraced(ref.Clone())
		}
		if d := diffTLBs(got, ref); d != "" {
			t.Fatalf("op %d (code %d): %s", step/3, op, d)
		}
	}
	gotEvents = append(gotEvents, gotRec.Events()...)
	refEvents = append(refEvents, refRec.Events()...)
	if !slices.Equal(gotEvents, refEvents) {
		t.Fatalf("traced events differ:\n%+v\nreference\n%+v", gotEvents, refEvents)
	}
}

// forgetFlushes wipes every array's flushed-owner memory, so the next
// flush scans.
func (t *TLB) forgetFlushes() {
	for _, s := range []*setAssoc{t.l1Base, t.l1Huge, t.l2} {
		s.flushed = 0
	}
}

// diffTLBs describes the first difference between two TLBs' entries,
// recency state and counters, or returns "".
func diffTLBs(a, b *TLB) string {
	if a.Lookups != b.Lookups || a.L1Hits != b.L1Hits || a.L2Hits != b.L2Hits || a.Misses != b.Misses {
		return fmt.Sprintf("counters %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Lookups, a.L1Hits, a.L2Hits, a.Misses, b.Lookups, b.L1Hits, b.L2Hits, b.Misses)
	}
	names := []string{"l1Base", "l1Huge", "l2"}
	for i, pair := range [][2]*setAssoc{{a.l1Base, b.l1Base}, {a.l1Huge, b.l1Huge}, {a.l2, b.l2}} {
		sa, sb := pair[0], pair[1]
		if !slices.Equal(sa.keys, sb.keys) || !slices.Equal(sa.lrus, sb.lrus) || sa.tick != sb.tick {
			return fmt.Sprintf("%s: keys %x lrus %v tick %d vs keys %x lrus %v tick %d",
				names[i], sa.keys, sa.lrus, sa.tick, sb.keys, sb.lrus, sb.tick)
		}
	}
	return ""
}

// tlbFuzzOp encodes one operation of a FuzzTLBInvalidate program.
func tlbFuzzOp(op, x, y int) []byte { return []byte{byte(op), byte(x), byte(y)} }

// tlbFuzzSeeds returns the seed corpus: repeated flushes of one owner with
// and without refills in between, region flushes that do and do not empty
// an owner, and a clone taken right after a flush.
func tlbFuzzSeeds() [][]byte {
	prog := func(cfg byte, ops ...[]byte) []byte {
		return append([]byte{cfg}, slices.Concat(ops...)...)
	}
	random := func(cfg byte, seed uint64, n int) []byte {
		r := sim.NewRand(seed)
		out := []byte{cfg}
		for i := 0; i < n; i++ {
			op := tlbOpAccess
			switch v := r.Intn(20); {
			case v < 2:
				op = tlbOpInvProcess
			case v < 4:
				op = tlbOpInvRegion
			case v == 4:
				op = tlbOpClone
			case v < 9:
				op = tlbOpAccessRun
			}
			out = append(out, tlbFuzzOp(op, r.Intn(256), r.Intn(256))...)
		}
		return out
	}
	return [][]byte{
		// Flush pid 1 twice (the second skips), refill, flush again.
		prog(1, tlbFuzzOp(tlbOpAccess, 1, 3), tlbFuzzOp(tlbOpAccess, 5, 2), tlbFuzzOp(tlbOpInvProcess, 1, 0),
			tlbFuzzOp(tlbOpInvProcess, 1, 0), tlbFuzzOp(tlbOpAccess, 1, 9), tlbFuzzOp(tlbOpInvProcess, 1, 0),
			tlbFuzzOp(tlbOpAccess, 1, 9)),
		// A region flush that leaves pid 2 entries elsewhere, then one that
		// empties it, then a process flush (skipped) and a clone.
		prog(1, tlbFuzzOp(tlbOpAccess, 2, 8), tlbFuzzOp(tlbOpAccess, 2, 17), tlbFuzzOp(tlbOpAccess, 6, 1),
			tlbFuzzOp(tlbOpInvRegion, 2, 0), tlbFuzzOp(tlbOpInvRegion, 2, 1), tlbFuzzOp(tlbOpInvProcess, 2, 0),
			tlbFuzzOp(tlbOpClone, 0, 0), tlbFuzzOp(tlbOpAccessRun, 2+8, 8), tlbFuzzOp(tlbOpInvProcess, 2, 0)),
		random(0, 1, 300),
		random(1, 2, 300),
	}
}
