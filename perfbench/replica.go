package main

import (
	"fmt"
	"sync"
	"time"

	"hawkeye/internal/core"
	"hawkeye/internal/experiments"
	"hawkeye/internal/kernel"
	"hawkeye/internal/policy"
	"hawkeye/internal/sim"
	"hawkeye/internal/snapshot"
	"hawkeye/internal/workload"
)

// The sweep replica re-executes every cell as the sequence of public calls
// experiments.RunSweepCell makes, with a span around each call:
//
//	snapshot.Fork -> workload.New + AttachReplay -> Kernel.Spawn + Run -> Kernel.Release
//
// Its rows must equal RunSweepCell's (the fidelity check), so the spans stay
// attached to the code path the timed run measures.

// cellSpans are one replica cell's host-time spans and simulated statistics.
type cellSpans struct {
	fork, attach, run, release time.Duration
	// first marks the cell that claimed its seed first: its fork built the
	// warm-up snapshot and its run captured the access trace.
	first bool

	lookups, l1Hits, misses int64
	walkCycles              float64
	events                  float64
	faults, hugeFaults      int64
	faultNs                 int64
	promotions, demotions   int64
	daemon                  sim.Time
}

// replicaResult is the whole replica pass.
type replicaResult struct {
	rows  []experiments.SweepRow
	cells []cellSpans
	wall  time.Duration
}

// runReplica executes the grid on the same number of workers as the timed
// run, pulling cells in grid order.
func runReplica(spec experiments.SweepSpec, opts experiments.Options, workers int) replicaResult {
	opts = opts.WithDefaults()
	cells := spec.Cells(opts.Seed)
	res := replicaResult{
		rows:  make([]experiments.SweepRow, len(cells)),
		cells: make([]cellSpans, len(cells)),
	}
	var mu sync.Mutex
	claimed := map[uint64]bool{}
	claim := func(seed uint64) bool {
		mu.Lock()
		defer mu.Unlock()
		first := !claimed[seed]
		claimed[seed] = true
		return first
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res.rows[i], res.cells[i] = replicaCell(opts, spec, cells[i], claim(cells[i].Seed))
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// replicaCell mirrors experiments.RunSweepCell for a default-option sweep
// (no scalar path, caches on, tracing off).
func replicaCell(o experiments.Options, spec experiments.SweepSpec, cell experiments.SweepCell, first bool) (experiments.SweepRow, cellSpans) {
	row := experiments.SweepRow{Policy: cell.Policy, Threshold: cell.Threshold, Seed: cell.Seed}
	sp := cellSpans{first: first}
	ws, ok := workload.Catalog()[spec.Workload]
	if !ok {
		row.Error = fmt.Sprintf("unknown workload %q", spec.Workload)
		return row, sp
	}
	pol, err := sweepPolicy(cell.Policy, cell.Threshold, o.Quick)
	if err != nil {
		row.Error = err.Error()
		return row, sp
	}
	o.Seed = cell.Seed
	if o.Quick {
		ws.WorkSeconds /= 10
	}
	cfg := kernel.DefaultConfig()
	cfg.MemoryBytes = o.MemoryBytes
	cfg.Seed = o.Seed
	cfg.NoChunkMemo = o.NoChunkMemo

	t := time.Now()
	k := snapshot.Fork(cfg, pol, spec.FragKeep, kernel.DefaultPinnedChunkFrac)
	sp.fork = time.Since(t)

	lookups0, l1Hits0, misses0 := k.TLB.Lookups, k.TLB.L1Hits, k.TLB.Misses
	events0 := k.Engine.Fired()
	t = time.Now()
	inst := workload.New(ws, o.Scale)
	if inst.Sampler != nil {
		inst.AttachReplay(workload.TraceKey{
			Cfg:    cfg,
			Keep:   spec.FragKeep,
			Pinned: kernel.DefaultPinnedChunkFrac,
			Geom:   inst.Sampler.Geometry(),
		}, k.Trace)
	}
	sp.attach = time.Since(t)

	t = time.Now()
	p := k.Spawn(spec.Workload, inst.Program)
	err = k.Run(0)
	sp.run = time.Since(t)

	row.CowDirtyChunks = k.COWDirtyChunks()
	if err != nil {
		row.Error = err.Error()
	} else {
		row.RuntimeSeconds = p.Runtime(k.Now()).Seconds()
		row.Overhead = p.PMU.Overhead()
		row.Faults = p.Acct.Faults
		row.HugeFaults = p.Acct.HugeFaults
		row.Promotions = p.VP.Stats.Promotions
		row.OOM = p.OOMKilled
	}
	sp.lookups = k.TLB.Lookups - lookups0
	sp.l1Hits = k.TLB.L1Hits - l1Hits0
	sp.misses = k.TLB.Misses - misses0
	sp.events = float64(k.Engine.Fired() - events0)
	sp.walkCycles = float64(p.PMU.WalkCycles)
	sp.faults, sp.hugeFaults, sp.faultNs = p.Acct.Faults, p.Acct.HugeFaults, p.Acct.FaultNs
	sp.promotions, sp.demotions = p.VP.Stats.Promotions, p.VP.Stats.Demotions
	sp.daemon = k.DaemonTime

	t = time.Now()
	k.Release()
	sp.release = time.Since(t)
	return row, sp
}

// sweepPolicy mirrors the experiments package's per-policy reading of the
// sweep threshold; the fidelity check fails if the two drift apart.
func sweepPolicy(name string, threshold float64, quick bool) (kernel.Policy, error) {
	f := 1.0
	if quick {
		f = 10
	}
	switch name {
	case "linux-4k":
		return policy.NewNone(), nil
	case "linux":
		p := policy.NewLinuxTHP()
		p.ScanRate = threshold * f
		return p, nil
	case "ingens":
		p := policy.NewIngens()
		p.UtilThreshold = threshold
		p.ScanRate *= f
		return p, nil
	case "hawkeye-pmu", "hawkeye-g":
		v := core.VariantPMU
		if name == "hawkeye-g" {
			v = core.VariantG
		}
		c := core.DefaultConfig(v)
		c.PromoteRate *= f
		c.BloatScanRate = int(float64(c.BloatScanRate) * f)
		if f > 1 {
			c.SamplePeriod = sim.Time(float64(c.SamplePeriod) / f)
			if c.SampleWindow > c.SamplePeriod/2 {
				c.SampleWindow = c.SamplePeriod / 2
			}
		}
		c.PromoteRate = threshold * f
		return core.New(c), nil
	}
	return nil, fmt.Errorf("unknown sweep policy %q", name)
}

// report folds the replica into the traced record: span medians and sums
// into the harness block, summed simulated statistics into the sim block.
func (r replicaResult) report(rep *childReport) {
	var forks, builds, releases, capRuns, replayRuns, cellMs []float64
	var run time.Duration
	var lookups, l1Hits, misses int64
	var faults, huge, faultNs, promos, demos int64
	var walk, events float64
	var daemon sim.Time
	for _, c := range r.cells {
		if c.first {
			builds = append(builds, ms(c.fork))
			capRuns = append(capRuns, ms(c.run))
		} else {
			forks = append(forks, us(c.fork))
			replayRuns = append(replayRuns, ms(c.run))
		}
		releases = append(releases, us(c.release))
		cellMs = append(cellMs, ms(c.fork+c.attach+c.run+c.release))
		run += c.run
		lookups += c.lookups
		l1Hits += c.l1Hits
		misses += c.misses
		walk += c.walkCycles
		events += c.events
		faults += c.faults
		huge += c.hugeFaults
		faultNs += c.faultNs
		promos += c.promotions
		demos += c.demotions
		daemon += c.daemon
	}
	h := rep.Harness
	h["snapshot.build_ms"] = median(builds)
	h["snapshot.fork_us"] = median(forks)
	h["kernel.release_us"] = median(releases)
	h["trace.run_capture_ms"] = median(capRuns)
	h["trace.run_replay_ms"] = median(replayRuns)
	h["kernel.run_ms"] = ms(run)
	if lookups > 0 {
		h["kernel.ns_per_access"] = float64(run.Nanoseconds()) / float64(lookups)
	}
	if p, ok := percentile(cellMs, 0.5); ok {
		h["cell_p50_ms"] = p
	}
	if p, ok := percentile(cellMs, 0.9); ok {
		h["cell_p90_ms"] = p
	}
	rep.Sim = map[string]float64{
		"kernel.accesses":     float64(lookups),
		"sim.events":          events,
		"tlb.sim_walk_cycles": walk,
		"fault.faults":        float64(faults),
		"fault.huge_faults":   float64(huge),
		"fault.sim_fault_s":   float64(faultNs) / 1e9,
		"vmm.promotions":      float64(promos),
		"vmm.demotions":       float64(demos),
		"policy.sim_daemon_s": daemon.Seconds(),
	}
	if lookups > 0 {
		rep.Sim["tlb.l1_hit_ratio"] = float64(l1Hits) / float64(lookups)
		rep.Sim["tlb.miss_ratio"] = float64(misses) / float64(lookups)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
