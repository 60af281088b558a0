// Command perfbench is the repository's benchmark. It runs one workload of
// the HawkEye simulator in fresh child processes, times the CLI's public
// entry points (runner.RunSweepProgress for sweeps, runner.Run for
// experiments) from outside, checks every unit's output, and prints each
// end-to-end metric by name and unit. With --trace 1 it adds a traced run of
// the same workload and prints the per-layer record instead.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sweep-div180 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 180, "failed": 0, "metrics": {"wall_s": {"value": 13.9, "unit": "s"}, ...}}
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// deadline bounds a whole invocation; children still running at it are
// killed and the run fails.
const deadline = 170 * time.Second

// setupProbes is how many extra set-up-only children each invocation
// starts; setup_s is the median over them and every timed child.
const setupProbes = 20

func main() {
	child := flag.String("child", "", "internal: run as a child in this mode (setup, run, traced)")
	profile := flag.String("profile", "", "internal: CPU profile path of a traced child")
	name := flag.String("workload", "", "workload to run: sweep-div180, fig8 or suite-small")
	seed := flag.Uint64("seed", 1, "benchmark seed; the workload's inputs are derived from it")
	seconds := flag.Float64("seconds", 10, "measure whole workload runs totalling about this many seconds (at least one run)")
	traceFlag := flag.Int("trace", 0, "1 = add a traced run and print the per-layer record")
	dumpDigests := flag.Bool("dump-digests", false, "print the unit digests of one timed run as JSON and exit")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *name, *seed, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	b, err := newBench(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *dumpDigests {
		os.Exit(b.dumpDigests())
	}
	os.Exit(b.run(*seconds, *traceFlag == 1))
}

// bench is one invocation: a workload, a seed, and the children run so far.
type bench struct {
	w        load
	seed     uint64
	self     string
	workDir  string
	stop     time.Time
	setups   []float64
	timed    []childRun
	expected []string // stored unit digests for this seed, nil if none
}

// childRun is one finished child: its own report plus what the parent
// measured around it.
type childRun struct {
	rep      childReport
	setupS   float64
	cpuS     float64
	maxRSSMB float64
}

func newBench(w load, seed uint64) (*bench, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Profiles and other working files live in the build directory of the
	// checkout the benchmark runs from.
	workDir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	return &bench{
		w:        w,
		seed:     seed,
		self:     self,
		workDir:  workDir,
		stop:     time.Now().Add(deadline),
		expected: storedDigests(w.name, seed),
	}, nil
}

// spawn runs one child to completion and collects its report and rusage.
func (b *bench) spawn(mode string) (childRun, error) {
	args := []string{"-child", mode, "-workload", b.w.name, "-seed", strconv.FormatUint(b.seed, 10)}
	if mode == modeTraced {
		args = append(args, "-profile", b.profilePath())
	}
	ctx, cancel := context.WithDeadline(context.Background(), b.stop)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	var cr childRun
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return cr, fmt.Errorf("%s child: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		cr.maxRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	if err := json.Unmarshal(out.Bytes(), &cr.rep); err != nil {
		return cr, fmt.Errorf("%s child report: %w", mode, err)
	}
	cr.setupS = float64(cr.rep.StartNs-t0.UnixNano()) / 1e9
	return cr, nil
}

func (b *bench) profilePath() string {
	return filepath.Join(b.workDir, fmt.Sprintf("%s-%d.pprof", b.w.name, b.seed))
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// measureSetup starts set-up-only children and records their set-up times.
func (b *bench) measureSetup() error {
	for i := 0; i < setupProbes; i++ {
		cr, err := b.spawn(modeSetup)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, cr.setupS)
	}
	return nil
}

// runTimed repeats whole timed runs of the workload while the next run is
// expected to end within seconds of measured wall time (there is always at
// least one run), and while another run would still leave reserve seconds
// before the invocation's deadline.
func (b *bench) runTimed(seconds float64, reserve float64) error {
	var measured float64
	for {
		cr, err := b.spawn(modeRun)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: timed run %d: wall %.3fs cpu %.3fs peak heap %.0f MB max RSS %.0f MB\n",
			len(b.timed)+1, cr.rep.WallS, cr.cpuS, cr.rep.PeakHeapBytes/1e6, cr.maxRSSMB)
		b.timed = append(b.timed, cr)
		b.setups = append(b.setups, cr.setupS)
		measured += cr.rep.WallS
		next := measured / float64(len(b.timed))
		if measured+next > seconds || time.Until(b.stop).Seconds() < 1.5*next+reserve {
			return nil
		}
	}
}

// check compares a run's units against the stored digests for this seed.
// It returns how many units failed and a reason per failure.
func (b *bench) check(units []unitResult) (failed int, why []string) {
	if b.expected != nil && len(b.expected) != len(units) {
		return len(units), []string{fmt.Sprintf("%d units, %d stored digests", len(units), len(b.expected))}
	}
	for i, u := range units {
		switch {
		case u.Err != "":
			failed++
			why = append(why, u.Name+": "+u.Err)
		case b.expected != nil && u.Digest != b.expected[i]:
			failed++
			why = append(why, fmt.Sprintf("%s: digest %s, stored %s", u.Name, u.Digest, b.expected[i]))
		}
	}
	return failed, why
}

// run is one benchmark invocation. It returns the process exit code.
func (b *bench) run(seconds float64, traced bool) int {
	if err := b.measureSetup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// A traced invocation keeps room for the traced child, which re-runs
	// the workload under a profiler (and, for sweeps, runs the replica).
	reserve := 5.0
	if traced {
		reserve = 60
	}
	if err := b.runTimed(seconds, reserve); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: true}
	var problems []string
	tally := func(units []unitResult, failed int, why []string) {
		res.Attempted += len(units)
		res.Failed += failed
		problems = append(problems, why...)
	}
	for i, cr := range b.timed {
		failed, why := b.check(cr.rep.Units)
		// Every run of one seed must produce the same outputs.
		if i > 0 && failed == 0 {
			failed, why = sameOutputs(b.timed[0].rep.Units, cr.rep.Units, "timed run "+strconv.Itoa(i+1))
		}
		tally(cr.rep.Units, failed, why)
	}
	if traced {
		tr, err := b.spawn(modeTraced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: traced child wall %.2fs cpu %.2fs max RSS %.0f MB\n", tr.rep.WallS, tr.cpuS, tr.maxRSSMB)
		failed, why := b.check(tr.rep.Units)
		// Tracing must not perturb output.
		if failed == 0 {
			failed, why = sameOutputs(b.timed[0].rep.Units, tr.rep.Units, "traced run")
		}
		tally(tr.rep.Units, failed, why)
		problems = append(problems, tr.rep.Fidelity...)
		layers, err := b.layerRecord(tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res.Metrics = layers
	} else {
		res.Metrics = b.endToEnd()
	}
	if res.Failed > 0 || len(problems) > 0 {
		res.Correct = false
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check:", p)
	}
	b.print(res, traced)
	if !res.Correct {
		return 1
	}
	return 0
}

// sameOutputs compares a run's unit digests with the first timed run's and
// returns how many units differ, with a reason for each.
func sameOutputs(first, run []unitResult, label string) (failed int, why []string) {
	if len(first) != len(run) {
		return len(run), []string{fmt.Sprintf("%s has %d units, timed run 1 has %d", label, len(run), len(first))}
	}
	for i := range first {
		if first[i].Digest != run[i].Digest {
			failed++
			why = append(why, fmt.Sprintf("%s: %s digest %s, timed run 1 %s", first[i].Name, label, run[i].Digest, first[i].Digest))
		}
	}
	return failed, why
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd reduces the timed runs to the end-to-end metrics: medians over
// the runs, set-up time over every child started.
func (b *bench) endToEnd() map[string]metricValue {
	var walls, cpus []float64
	for _, cr := range b.timed {
		walls = append(walls, cr.rep.WallS)
		cpus = append(cpus, cr.cpuS)
	}
	vals := map[string]float64{
		"wall_s":  median(walls),
		"setup_s": median(b.setups),
		"cpu_s":   median(cpus),
	}
	m := map[string]metricValue{}
	for _, d := range endToEndMetrics {
		m[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

// print writes the human-readable record and, last, the JSON result line.
func (b *bench) print(res result, traced bool) {
	fmt.Printf("workload %s seed %d: %d timed run(s)\n", b.w.name, b.seed, len(b.timed))
	if traced {
		printLayers(res.Metrics)
	} else {
		for _, d := range endToEndMetrics {
			v := res.Metrics[d.name]
			n := len(b.timed)
			if d.name == "setup_s" {
				n = len(b.setups)
			}
			fmt.Printf("%-16s %14.6g %-3s (median of %d)\n", d.name, v.Value, v.Unit, n)
		}
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%-16s %14.6g (%d of %d units)\n", "fail_frac", frac, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(line))
}

// dumpDigests runs the workload once and prints its unit digests, for
// refreshing digests.json after an intended output change.
func (b *bench) dumpDigests() int {
	cr, err := b.spawn(modeRun)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ds := make([]string, len(cr.rep.Units))
	for i, u := range cr.rep.Units {
		if u.Err != "" {
			fmt.Fprintln(os.Stderr, "perfbench:", u.Name+":", u.Err)
			return 1
		}
		ds[i] = u.Digest
	}
	out, _ := json.Marshal(ds)
	fmt.Println(string(out))
	return 0
}

//go:embed digests.json
var digestsJSON []byte

// storedDigests returns the unit digests recorded for workload and
// benchmark seed, or nil when the seed has none (structural checks only).
func storedDigests(name string, seed uint64) []string {
	var all map[string]map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return all[name][strconv.FormatUint(seed, 10)]
}
