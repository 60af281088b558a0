package main

import (
	"fmt"
	"sort"

	"hawkeye/internal/experiments"
)

// load is one benchmark workload: either a sweep grid run through
// runner.RunSweepProgress or a list of experiments run through runner.Run.
// A unit is one sweep cell or one experiment.
type load struct {
	name    string
	sweep   *experiments.SweepSpec // nil for experiment workloads
	ids     func() []string        // experiment IDs (experiment workloads)
	scale   float64                // 0 = the simulator's default 1/12
	workers int
	// traceCounters enables Options.Trace on the traced run's machines so
	// per-machine counters can be summed. It is off where the traced
	// machines' retained recorders would not fit the reference box's memory.
	traceCounters bool
}

// loads lists every benchmark workload by name.
var loads = map[string]load{
	// 180 cells share one warm-up snapshot and one trace capture per seed,
	// so snapshot fork, trace replay and chunk-memo fingerprinting carry
	// the load. The memo hits on the linux-4k rows, which ignore the
	// threshold, and misses on the rest.
	"sweep-div180": {
		name: "sweep-div180",
		sweep: &experiments.SweepSpec{
			Workload:   "graph500",
			Policies:   []string{"linux-4k", "linux", "ingens", "hawkeye-pmu", "hawkeye-g"},
			Thresholds: []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2},
			Seeds:      6,
			FragKeep:   0.15,
		},
		scale:   0.02,
		workers: 2,
	},
	// 30 machines forked from one fragmented warm-up with no trace replay
	// and no memo, so TLB/vmm, faults and policy daemons carry the load;
	// the memory-ceiling case. Not in BENCHMARK.json: one 25-30 s
	// single-seed run near the reference box's memory ceiling (~3.9 GB max
	// RSS) drifted more than an end-to-end bound allows, and the time
	// budget of a benchmark pass cannot repeat it. It stays runnable by
	// name.
	"fig8": {
		name:    "fig8",
		ids:     func() []string { return []string{"fig8"} },
		workers: 1,
	},
	// The only load on the virt, ksm, content and swap paths and on the
	// unfragmented fresh builds that bypass the snapshot cache; the trace
	// cache mostly captures here.
	"suite-small": {
		name:          "suite-small",
		ids:           experiments.IDs,
		scale:         0.02,
		workers:       1,
		traceCounters: true,
	},
}

// lookupWorkload returns the named workload or an error listing the valid
// names.
func lookupWorkload(name string) (load, error) {
	w, ok := loads[name]
	if !ok {
		names := make([]string, 0, len(loads))
		for n := range loads {
			names = append(names, n)
		}
		sort.Strings(names)
		return load{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
	}
	return w, nil
}

// options returns the simulator options the CLI would build for this
// workload: -quick, the workload's -scale and the benchmark seed.
func (w load) options(seed uint64) experiments.Options {
	return experiments.Options{Scale: w.scale, Seed: seed, Quick: true}
}
