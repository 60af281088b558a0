package main

import (
	"fmt"
	"os/exec"
	"strings"

	"hawkeye/internal/experiments"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the simulator sees, printed by an
// untraced invocation.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},  // first unit's start to last unit's end
	{"setup_s", "s"}, // process exec to first unit's start
	{"cpu_s", "s"},   // child user+sys CPU
}

// layerSection groups per-layer metrics for printing. Simulated statistics
// are seed-determined and repeat exactly; harness counters and timings do
// not, and are kept apart.
type layerSection struct {
	title   string
	metrics []metricDef
}

// layerSections lists every per-layer metric a traced invocation prints.
func layerSections() []layerSection {
	secs := []layerSection{
		{"runner", []metricDef{
			{"runner.units", "count"}, {"runner.worker_util", "ratio"},
			{"cell_p50_ms", "ms"}, {"cell_p90_ms", "ms"},
			{"trace_overhead_frac", "ratio"},
		}},
		{"simulated statistics (exact for a seed)", []metricDef{
			{"sim.events", "count"}, {"kernel.accesses", "count"},
			{"tlb.l1_hit_ratio", "ratio"}, {"tlb.miss_ratio", "ratio"},
			{"tlb.sim_walk_cycles", "cycles"},
			{"fault.faults", "count"}, {"fault.huge_faults", "count"},
			{"fault.sim_fault_s", "sim_s"},
			{"vmm.promotions", "count"}, {"vmm.demotions", "count"},
			{"policy.sim_daemon_s", "sim_s"},
		}},
		{"harness counters and spans", []metricDef{
			{"snapshot.builds", "count"}, {"snapshot.build_ms", "ms"},
			{"snapshot.fork_us", "us"}, {"snapshot.resident_mb", "MB"},
			{"snapshot.cow_dirty_chunks", "count"}, {"kernel.release_us", "us"},
			{"trace.captures", "count"}, {"trace.replay_hits", "count"},
			{"trace.resident_mb", "MB"},
			{"trace.run_capture_ms", "ms"}, {"trace.run_replay_ms", "ms"},
			{"memo.hits", "count"}, {"memo.misses", "count"},
			{"memo.invalidations", "count"}, {"memo.hit_ratio", "ratio"},
			{"kernel.run_ms", "ms"}, {"kernel.ns_per_access", "ns"},
		}},
		// Peak memory of the timed runs. It depends on where GC cycles
		// land, which differs run to run by more than an end-to-end bound
		// allows, so it is recorded here rather than gated.
		{"memory and go runtime (timed runs)", []metricDef{
			{"peak_heap_mb", "MB"}, {"peak_rss_mb", "MB"},
			{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"},
		}},
	}
	cpu := layerSection{title: "cpu share by layer (flat profile time)"}
	for _, l := range cpuLayers {
		cpu.metrics = append(cpu.metrics, metricDef{"cpu." + l, "ratio"})
	}
	exp := layerSection{title: "experiments (wall per experiment, timed run)"}
	for _, id := range experiments.IDs() {
		exp.metrics = append(exp.metrics, metricDef{"exp." + id + "_s", "s"})
	}
	return append(secs, cpu, exp)
}

// layerRecord assembles the per-layer metrics from the traced child, the
// timed children of the same invocation and the folded CPU profile.
// Metrics a workload cannot observe are reported as 0.
func (b *bench) layerRecord(tr childRun) (map[string]metricValue, error) {
	vals := map[string]float64{}
	for k, v := range tr.rep.Harness {
		vals[k] = v
	}
	for k, v := range tr.rep.Sim {
		vals[k] = v
	}
	var walls, heaps, rss, allocs, gcs []float64
	unitWalls := map[string][]float64{}
	for _, cr := range b.timed {
		walls = append(walls, cr.rep.WallS)
		heaps = append(heaps, cr.rep.PeakHeapBytes/1e6)
		rss = append(rss, cr.maxRSSMB)
		allocs = append(allocs, cr.rep.AllocBytes/1e6)
		gcs = append(gcs, cr.rep.GCCycles)
		for _, u := range cr.rep.Units {
			unitWalls[u.Name] = append(unitWalls[u.Name], u.WallS)
		}
	}
	vals["trace_overhead_frac"] = tr.rep.WallS/median(walls) - 1
	vals["peak_heap_mb"] = median(heaps)
	vals["peak_rss_mb"] = median(rss)
	vals["go.alloc_mb"] = median(allocs)
	vals["go.gc_cycles"] = median(gcs)
	for id, ws := range unitWalls {
		vals["exp."+id+"_s"] = median(ws)
	}
	listing, err := exec.Command("go", "tool", "pprof", "-top", "-files",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", b.profilePath()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := foldListing(string(listing))
	if err != nil {
		return nil, err
	}
	for l, s := range shares {
		vals["cpu."+l] = s
	}
	out := map[string]metricValue{}
	for _, sec := range layerSections() {
		for _, d := range sec.metrics {
			out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
	}
	return out, nil
}

// printLayers prints the per-layer record section by section.
func printLayers(m map[string]metricValue) {
	for _, sec := range layerSections() {
		fmt.Printf("[%s]\n", sec.title)
		for _, d := range sec.metrics {
			if strings.HasPrefix(d.name, "cell_p") && m[d.name].Value == 0 {
				fmt.Printf("  %-28s %14s %s\n", d.name, "-", "(fewer than 10 samples above it)")
				continue
			}
			fmt.Printf("  %-28s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
		}
	}
}
