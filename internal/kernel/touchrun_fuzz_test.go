package kernel

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hawkeye/internal/mem"
	"hawkeye/internal/trace"
	"hawkeye/internal/vmm"
)

// Region layout of the dwell fuzz machine's process. The policy maps
// regions 2-4 huge on first touch and everything else base, and the warm-up
// in dwellWarm leaves each region in a different state, so decoded runs land
// on every path TouchRun's dwell form takes.
const (
	dwellBaseMixed  = 0 // base pages: read slots 0-255, written 256-383, rest absent
	dwellBaseShared = 1 // base pages: slots 0-127 COW-shared (merged), 128-255 private
	dwellHuge       = 2 // huge mapping, touched
	dwellHugeAbsent = 3 // empty region, huge policy: first touch is a huge fault
	dwellZeroShared = 4 // huge mapping deduplicated to zero-page COW base mappings
	dwellBaseAbsent = 5 // empty region, base policy: every slot first-touch faults
	dwellRegions    = 6
)

// dwellPolicy answers DecideHuge for regions 2-4 and DecideBase elsewhere.
type dwellPolicy struct{}

func (dwellPolicy) Name() string     { return "dwell" }
func (dwellPolicy) Attach(k *Kernel) {}
func (dwellPolicy) OnFault(k *Kernel, p *Proc, r *vmm.Region, vpn vmm.VPN) Decision {
	if r.Index >= dwellHuge && r.Index <= dwellZeroShared {
		return DecideHuge
	}
	return DecideBase
}

var (
	dwellSnapOnce sync.Once
	dwellSnap     *Snapshot
)

// dwellSnapshot is the small quiescent machine both forks of every fuzz
// input start from.
func dwellSnapshot() *Snapshot {
	dwellSnapOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.MemoryBytes = 32 << 20
		dwellSnap = New(cfg, dwellPolicy{}).Snapshot()
	})
	return dwellSnap
}

func dwellVPN(region, slot int) vmm.VPN {
	return vmm.VPN(int64(region)*int64(mem.HugePages) + int64(slot))
}

// dwellWarm forks the snapshot and warms one process into the layout above.
// The warm-up is deterministic, so two calls yield identical machines.
func dwellWarm(t *testing.T) (*Kernel, *Proc) {
	t.Helper()
	// Tracing on for its vmstat counters; a small event ring keeps the
	// per-input fork cheap.
	k := dwellSnapshot().Fork(dwellPolicy{}, &trace.Config{Capacity: 256})
	p := k.Spawn("dwell", nil)
	touch := func(region, slot int, write bool) {
		if _, err := k.Touch(p, dwellVPN(region, slot), write); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 384; s++ {
		touch(dwellBaseMixed, s, s >= 256)
	}
	for s := 0; s < 256; s++ {
		touch(dwellBaseShared, s, true)
	}
	for s := 0; s < 128; s++ {
		pte, _, _ := p.VP.Lookup(dwellVPN(dwellBaseShared, s))
		if !k.VMM.ConvertToShared(pte.Frame) {
			t.Fatalf("slot %d: ConvertToShared refused a private frame", s)
		}
	}
	touch(dwellHuge, 0, true)
	touch(dwellZeroShared, 0, false)
	k.VMM.DedupHuge(p.VP, p.VP.Region(dwellZeroShared))
	return k, p
}

// decodeDwellRuns turns fuzz bytes into dwell runs, four bytes each:
// region (low bits, mod dwellRegions) with the write flag in the top bit,
// a big-endian slot (mod 512), and Count-1 (mod 64).
func decodeDwellRuns(data []byte) []AccessRun {
	const maxRuns = 64
	var runs []AccessRun
	for len(data) >= 4 && len(runs) < maxRuns {
		region := int(data[0]&0x7f) % dwellRegions
		slot := (int(data[1])<<8 | int(data[2])) % mem.HugePages
		runs = append(runs, AccessRun{
			Start: dwellVPN(region, slot),
			Count: 1 + int(data[3]&63),
			Write: data[0]&0x80 != 0,
		})
		data = data[4:]
	}
	return runs
}

// dwellSpec is one seed-corpus run before encoding.
type dwellSpec struct {
	region, slot, count int
	write               bool
}

// encodeDwellRuns is decodeDwellRuns' inverse (seed corpus).
func encodeDwellRuns(specs ...dwellSpec) []byte {
	var data []byte
	for _, sp := range specs {
		b0 := byte(sp.region)
		if sp.write {
			b0 |= 0x80
		}
		data = append(data, b0, byte(sp.slot>>8), byte(sp.slot), byte(sp.count-1))
	}
	return data
}

// dwellState renders every piece of machine state a dwell can change: TLB
// and fault counters, process and allocator accounting, the traced vmstat
// counters, and per region its mapping shape, accessed/dirty population and
// the content signature behind every present slot.
func dwellState(t *testing.T, k *Kernel, p *Proc) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "tlb lookups=%d l1=%d l2=%d misses=%d\n", k.TLB.Lookups, k.TLB.L1Hits, k.TLB.L2Hits, k.TLB.Misses)
	a := p.Acct
	fmt.Fprintf(&b, "acct ns=%d faults=%d base=%d huge=%d cow=%d major=%d zeroed=%d\n",
		a.FaultNs, a.Faults, a.BaseFaults, a.HugeFaults, a.COWFaults, a.MajorFaults, a.ZeroedNs)
	fmt.Fprintf(&b, "vp rss=%d hugeMapped=%d stats=%+v\n", p.VP.RSS(), p.VP.HugeMapped(), p.VP.Stats)
	fmt.Fprintf(&b, "alloc free=%d zeroFree=%d\n", k.Alloc.FreePages(), k.Alloc.ZeroFreePages())
	if err := k.Trace.Counters.WriteVmstat(&b); err != nil {
		t.Fatal(err)
	}
	for _, r := range p.VP.RegionsInOrder() {
		pop, acc, dirty := r.PopulatedAccessedDirty()
		fmt.Fprintf(&b, "region %d huge=%v populated=%d resident=%d accessed=%d dirty=%d hugeAccessed=%v\n",
			r.Index, r.Huge, pop, r.Resident(), acc, dirty, r.HugeAccessed())
		for s := 0; s < mem.HugePages; s++ {
			pte, huge, present := p.VP.Lookup(dwellVPN(int(r.Index), s))
			if !present {
				continue
			}
			frame := pte.Frame
			if huge {
				frame = r.HugeFrame + mem.FrameID(s)
			}
			sig := k.Content.Get(frame)
			b.WriteString("slot ")
			b.WriteString(strconv.Itoa(s))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(sig.Hash, 16))
			b.WriteByte('/')
			b.WriteString(strconv.Itoa(int(sig.FirstNonZero)))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FuzzTouchRunDwell is the differential test of the batched steady path's
// closed form: a dwell of Count accesses executed as one TouchRun must
// leave the machine exactly as Count separate single-access TouchRuns do —
// same TLB counters, faults, mappings, accessed/dirty bits and content
// store stream — and charge the same summed fault cost and walk cycles.
// The two sides run on two forks of one warm machine.
func FuzzTouchRunDwell(f *testing.F) {
	seeds := [][]byte{
		// Reads of read-only, written and absent base slots.
		encodeDwellRuns(dwellSpec{dwellBaseMixed, 3, 17, false}),
		// Writes to a written slot and to a read-only one.
		encodeDwellRuns(dwellSpec{dwellBaseMixed, 300, 40, true}, dwellSpec{dwellBaseMixed, 5, 9, true}),
		// COW-shared writes (merged frame, then the canonical zero page)
		// and a read of a shared slot.
		encodeDwellRuns(dwellSpec{dwellBaseShared, 7, 12, true}, dwellSpec{dwellZeroShared, 100, 30, true},
			dwellSpec{dwellBaseShared, 8, 5, false}),
		// Huge region reads and writes.
		encodeDwellRuns(dwellSpec{dwellHuge, 511, 64, false}, dwellSpec{dwellHuge, 2, 33, true}),
		// First-touch faults: huge, base write, base read, then repeats.
		encodeDwellRuns(dwellSpec{dwellHugeAbsent, 9, 20, true}, dwellSpec{dwellBaseAbsent, 44, 6, true},
			dwellSpec{dwellBaseMixed, 450, 3, false}, dwellSpec{dwellBaseAbsent, 44, 2, false}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	prof := AccessProfile{Locality: 0.5, CyclesPerAccess: 300}
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := decodeDwellRuns(data)
		kRun, pRun := dwellWarm(t)
		kOne, pOne := dwellWarm(t)
		defer kRun.Release()
		defer kOne.Release()
		if a, b := dwellState(t, kRun, pRun), dwellState(t, kOne, pOne); a != b {
			t.Fatalf("warm forks differ before any run:\n%s\nvs\n%s", a, b)
		}
		var runRes, oneRes TouchRunResult
		for i, run := range runs {
			r, err := kRun.TouchRun(pRun, run, &prof)
			if err != nil {
				t.Fatalf("run %d %+v: %v", i, run, err)
			}
			runRes.FaultCost += r.FaultCost
			runRes.Walk += r.Walk
			one := run
			one.Count = 1
			for j := 0; j < run.Count; j++ {
				r, err := kOne.TouchRun(pOne, one, &prof)
				if err != nil {
					t.Fatalf("run %d %+v access %d: %v", i, run, j, err)
				}
				oneRes.FaultCost += r.FaultCost
				oneRes.Walk += r.Walk
			}
		}
		if runRes != oneRes {
			t.Errorf("summed cost: dwell %+v, single accesses %+v", runRes, oneRes)
		}
		if a, b := dwellState(t, kRun, pRun), dwellState(t, kOne, pOne); a != b {
			t.Errorf("machine state diverged after %d runs:\n%s", len(runs), diffLines(a, b))
		}
	})
}

// diffLines reports the first differing line of two renderings.
func diffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n dwell:  %s\n single: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
