package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hawkeye/internal/experiments"
	"hawkeye/internal/introspect"
	"hawkeye/internal/runner"
	"hawkeye/internal/snapshot"
	"hawkeye/internal/trace"
	"hawkeye/internal/workload"
)

// Child modes: setup stops where the first unit would start, run times the
// workload, traced times it under a CPU profile and then collects the
// per-layer record.
const (
	modeSetup  = "setup"
	modeRun    = "run"
	modeTraced = "traced"
)

// unitResult is one unit's outcome: its output digest (wall-time lines
// stripped) and, when the child's own output check failed, why.
type unitResult struct {
	Name   string  `json:"name"`
	Digest string  `json:"digest"`
	Err    string  `json:"err,omitempty"`
	WallS  float64 `json:"wall_s"`
}

// childReport is what a child prints as its only stdout line.
type childReport struct {
	// StartNs is the Unix time (ns) at which the first unit started; the
	// parent subtracts its own exec timestamp to get setup time.
	StartNs       int64        `json:"start_ns"`
	WallS         float64      `json:"wall_s"`
	PeakHeapBytes float64      `json:"peak_heap_bytes"`
	AllocBytes    float64      `json:"alloc_bytes"`
	GCCycles      float64      `json:"gc_cycles"`
	Units         []unitResult `json:"units"`
	// Sim holds simulated statistics: seed-determined, exact counts.
	Sim map[string]float64 `json:"sim,omitempty"`
	// Harness holds harness counters and timings (caches, spans).
	Harness map[string]float64 `json:"harness,omitempty"`
	// Fidelity lists sweep cells whose replica row differs from the row
	// experiments.RunSweepCell produced.
	Fidelity []string `json:"fidelity,omitempty"`
}

// runChild executes one child mode and prints its report on stdout.
func runChild(mode, name string, seed uint64, profile string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	heap := startHeapWatch()
	opts := w.options(simSeed(seed))
	rep := &childReport{}
	switch mode {
	case modeSetup:
		if w.sweep != nil {
			err = w.sweep.Validate()
		} else {
			err = validIDs(w.ids())
		}
		rep.StartNs = time.Now().UnixNano()
	case modeRun, modeTraced:
		traced := mode == modeTraced
		var stopProfile func()
		if traced {
			if stopProfile, err = startProfile(profile); err != nil {
				return err
			}
		}
		if w.sweep != nil {
			err = runSweepChild(w, opts, rep, traced, stopProfile)
		} else {
			err = runExperimentsChild(w, opts, rep, traced, stopProfile)
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	rep.PeakHeapBytes = heap.stop()
	rep.AllocBytes, rep.GCCycles = readRuntime()
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// simSeed maps the benchmark seed to the simulator's base seed. The
// simulator treats seed 0 as "default" (1), so the benchmark shifts by one
// to keep every benchmark seed distinct.
func simSeed(seed uint64) uint64 { return seed + 1 }

// validIDs rejects experiment IDs the registry does not know.
func validIDs(ids []string) error {
	for _, id := range ids {
		if _, ok := experiments.Registry[id]; !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	return nil
}

// startProfile starts the CPU profile of a traced child.
func startProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() { pprof.StopCPUProfile(); f.Close() }, nil
}

// harnessCounters are the process-wide introspect counters of the chunk
// memo and the trace replay path; they count whether or not machines are
// traced.
var harnessCounters = map[string]*introspect.Counter{
	"memo.hits":          introspect.GetCounter("chunk_effect_hits"),
	"memo.misses":        introspect.GetCounter("chunk_effect_miss"),
	"memo.invalidations": introspect.GetCounter("chunk_effect_invalidate"),
	"trace.replay_hits":  introspect.GetCounter("trace_replay_hits"),
}

// readHarness reads the harness counters and the two process-wide caches.
// Called after the timed run, so every value covers exactly that run.
func readHarness(into map[string]float64) {
	for name, c := range harnessCounters {
		into[name] = float64(c.Value())
	}
	if n := into["memo.hits"] + into["memo.misses"]; n > 0 {
		into["memo.hit_ratio"] = into["memo.hits"] / n
	} else {
		into["memo.hit_ratio"] = 0
	}
	ss := snapshot.Stats()
	into["snapshot.builds"] = float64(ss.Entries)
	into["snapshot.resident_mb"] = float64(ss.ResidentBytes) / 1e6
	ts := workload.TraceCacheStatsNow()
	into["trace.captures"] = float64(ts.Entries)
	into["trace.resident_mb"] = float64(ts.ResidentBytes) / 1e6
}

// runSweepChild times the sweep grid through runner.RunSweepProgress and
// checks every row. A traced child then re-executes the grid as the
// span-instrumented replica.
func runSweepChild(w load, opts experiments.Options, rep *childReport, traced bool, stopProfile func()) error {
	spec := *w.sweep
	start := time.Now()
	rep.StartNs = start.UnixNano()
	sr := runner.RunSweepProgress(spec, opts, w.workers, nil)
	rep.WallS = time.Since(start).Seconds()
	if traced {
		stopProfile()
	}
	var csv bytes.Buffer
	if err := sr.WriteCSV(&csv); err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	if len(lines) != len(sr.Rows)+1 {
		return fmt.Errorf("sweep csv has %d lines for %d rows", len(lines), len(sr.Rows))
	}
	want := spec.Cells(opts.WithDefaults().Seed)
	if len(sr.Rows) != len(want) {
		return fmt.Errorf("sweep returned %d rows for %d cells", len(sr.Rows), len(want))
	}
	for i, row := range sr.Rows {
		rep.Units = append(rep.Units, unitResult{
			Name:   fmt.Sprintf("%s/%g/%d", row.Policy, row.Threshold, row.Seed),
			Digest: digest(lines[i+1]),
			Err:    checkRow(row, want[i]),
		})
	}
	if !traced {
		return nil
	}
	rep.Harness = map[string]float64{}
	readHarness(rep.Harness)
	rep.Harness["runner.units"] = float64(len(sr.Rows))
	lat := sr.CellLatency
	rep.Harness["runner.worker_util"] = lat.MeanNs * float64(lat.Count) / 1e9 / (rep.WallS * float64(sr.Parallel))
	var dirty int64
	for _, row := range sr.Rows {
		dirty += row.CowDirtyChunks
	}
	rep.Harness["snapshot.cow_dirty_chunks"] = float64(dirty)

	// The replica starts from empty caches, exactly like the timed run.
	snapshot.Reset()
	workload.ResetTraceCache()
	runtime.GC()
	rr := runReplica(spec, opts, w.workers)
	for i, row := range rr.rows {
		if row != sr.Rows[i] {
			rep.Fidelity = append(rep.Fidelity, fmt.Sprintf("cell %d: replica %+v, RunSweepCell %+v", i, row, sr.Rows[i]))
		}
	}
	rr.report(rep)
	return nil
}

// checkRow is the structural output check every seed gets: the row is the
// cell asked for, it did not error, and its statistics are consistent.
func checkRow(row experiments.SweepRow, cell experiments.SweepCell) string {
	switch {
	case row.Policy != cell.Policy || row.Threshold != cell.Threshold || row.Seed != cell.Seed:
		return fmt.Sprintf("row is %s/%g/%d", row.Policy, row.Threshold, row.Seed)
	case row.Error != "":
		return row.Error
	case row.RuntimeSeconds <= 0:
		return "non-positive runtime"
	case row.Overhead < 0 || row.Overhead >= 1:
		return fmt.Sprintf("overhead %g outside [0,1)", row.Overhead)
	case row.Faults <= 0 || row.HugeFaults < 0 || row.HugeFaults > row.Faults || row.Promotions < 0:
		return fmt.Sprintf("inconsistent faults=%d huge=%d promotions=%d", row.Faults, row.HugeFaults, row.Promotions)
	}
	return ""
}

// runExperimentsChild times the experiments through runner.Run and checks
// every table. A traced child of a workload with traceCounters enables
// per-machine tracing and runs the experiments one runner.Run call at a
// time, summing each experiment's vmstat counters and dropping its traced
// machines before the next starts; one call for the whole list would keep
// every traced machine of the suite alive until the end.
func runExperimentsChild(w load, opts experiments.Options, rep *childReport, traced bool, stopProfile func()) error {
	ids := w.ids()
	batches := [][]string{ids}
	if traced && w.traceCounters {
		// Only the counters are read: a one-event ring keeps the recorders
		// small.
		opts.Trace = &trace.Config{Capacity: 1}
		batches = batches[:0]
		for _, id := range ids {
			batches = append(batches, []string{id})
		}
	}
	var unitWall, events float64
	sums := map[string]float64{}
	start := time.Now()
	rep.StartNs = start.UnixNano()
	for _, batch := range batches {
		results := runner.Run(batch, opts, w.workers)
		if len(results) != len(batch) {
			return fmt.Errorf("runner returned %d results for %d experiments", len(results), len(batch))
		}
		for i, res := range results {
			rep.Units = append(rep.Units, checkTable(res, batch[i]))
			unitWall += res.WallSeconds
			events += float64(res.Events)
			for _, e := range res.Traces.Entries() {
				for _, s := range e.Trace.Counters.Snapshot() {
					sums[s.Name] += s.Value
				}
			}
		}
	}
	rep.WallS = time.Since(start).Seconds()
	if !traced {
		return nil
	}
	stopProfile()
	rep.Harness = map[string]float64{}
	readHarness(rep.Harness)
	rep.Harness["runner.units"] = float64(len(rep.Units))
	rep.Harness["runner.worker_util"] = unitWall / (rep.WallS * float64(w.workers))
	rep.Harness["snapshot.cow_dirty_chunks"] = sums["snapshot_cow_dirty_chunks"]
	// Simulated statistics from the machines' vmstat counters. Without
	// per-machine tracing only the engines' event counts are observable.
	rep.Sim = map[string]float64{
		"sim.events":          events,
		"fault.faults":        sums["pgfault"],
		"fault.huge_faults":   sums["thp_fault_alloc"],
		"vmm.promotions":      sums["thp_collapse_alloc"],
		"vmm.demotions":       sums["thp_split"],
		"tlb.sim_walk_cycles": sums["walk_cycles"],
		"policy.sim_daemon_s": sums["daemon_time_us"] / 1e6,
	}
	return nil
}

// checkTable is the structural output check every seed gets for one
// experiment: it is the experiment asked for, it did not error, and it
// rendered a table (title line, header rule, at least one row).
func checkTable(res runner.Result, id string) unitResult {
	u := unitResult{Name: res.ID, Digest: digest(res.Table), WallS: res.WallSeconds}
	lines := strings.Split(res.Table, "\n")
	switch {
	case res.ID != id:
		u.Err = fmt.Sprintf("result is %s, want %s", res.ID, id)
	case res.Error != "":
		u.Err = res.Error
	case len(lines) < 4 || !strings.HasPrefix(lines[0], "== ") || !strings.HasPrefix(lines[2], "-"):
		u.Err = "output is not a rendered table"
	}
	return u
}

// heapWatch tracks the high-water of the live heap as measured by the
// garbage collector, read once per GC cycle from a finalizer that re-arms
// itself.
type heapWatch struct {
	mu      sync.Mutex
	peak    float64
	stopped atomic.Bool
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

// arm plants a sentinel whose finalizer runs after the GC cycle that finds
// it unreachable; the finalizer samples the live heap and plants the next.
func (h *heapWatch) arm() {
	sentinel := new([64]byte)
	runtime.SetFinalizer(sentinel, func(*[64]byte) {
		h.sample()
		if !h.stopped.Load() {
			h.arm()
		}
	})
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := float64(s[0].Value.Uint64())
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// stop takes a last sample and returns the peak live heap in bytes.
func (h *heapWatch) stop() float64 {
	h.stopped.Store(true)
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// readRuntime returns the bytes the heap allocated and the GC cycles run
// since process start.
func readRuntime() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcCycles = float64(s[1].Value.Uint64())
	}
	return allocBytes, gcCycles
}
