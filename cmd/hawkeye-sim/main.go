// Command hawkeye-sim composes ad-hoc simulations: pick a machine size, a
// huge-page policy and a set of catalog workloads, run them together, and
// print per-process results plus any recorded time series.
//
// Examples:
//
//	hawkeye-sim -policy hawkeye-g -workloads graph500,xsbench
//	hawkeye-sim -policy linux -fragment 0.15 -workloads cg.D -series mmu/cg.D
//	hawkeye-sim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hawkeye"
	"hawkeye/internal/mem"
)

func main() {
	policyName := flag.String("policy", "hawkeye-g", "huge-page policy (see -list)")
	memGB := flag.Float64("mem", 8, "machine memory in GiB")
	scale := flag.Float64("scale", hawkeye.DefaultScale, "workload footprint scale")
	seed := flag.Uint64("seed", 1, "RNG seed")
	fragment := flag.Float64("fragment", 0, "pre-fragment memory, keeping this fraction as page cache (0 = off)")
	swapGB := flag.Float64("swap", 0, "SSD swap partition size in GiB (0 = none)")
	workloads := flag.String("workloads", "quickstart", "comma-separated catalog workloads, or 'quickstart'")
	deadline := flag.Float64("deadline", 0, "stop after this many simulated seconds (0 = run to completion)")
	series := flag.String("series", "", "comma-separated recorder series to dump after the run")
	csv := flag.String("csv", "", "write the selected series as CSV to this file (use with -series)")
	traceEvents := flag.String("trace-events", "", "write the event trace as JSONL to this file")
	vmstat := flag.String("vmstat", "", "write a vmstat-style counter snapshot to this file after the run")
	traceChrome := flag.String("trace-chrome", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	traceSample := flag.Float64("trace-sample", 0, "sample all vmstat counters into recorder series every this many simulated seconds (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve live introspection endpoints (/metrics, /progress, /events, /debug/pprof) on this address while running (empty = off)")
	list := flag.Bool("list", false, "list policies and workloads, then exit")
	flag.Parse()

	if *list {
		fmt.Println("policies: ", strings.Join(hawkeye.PolicyNames(), ", "))
		fmt.Println("workloads:", strings.Join(hawkeye.Workloads(), ", "))
		return
	}

	if *debugAddr != "" {
		srv, err := hawkeye.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s\n", srv.Addr())
	}

	var traceCfg *hawkeye.TraceConfig
	if *traceEvents != "" || *vmstat != "" || *traceChrome != "" || *traceSample > 0 {
		traceCfg = &hawkeye.TraceConfig{
			SampleEvery: hawkeye.Time(*traceSample * float64(hawkeye.Second)),
		}
	}

	sim := hawkeye.NewSim(hawkeye.Options{
		Policy:       *policyName,
		MemoryBytes:  mem.Bytes(*memGB * float64(1<<30)),
		Scale:        *scale,
		Seed:         *seed,
		FragmentKeep: *fragment,
		SwapBytes:    mem.Bytes(*swapGB * float64(1<<30)),
		Trace:        traceCfg,
	})

	names := strings.Split(*workloads, ",")
	if *workloads == "quickstart" {
		names = []string{"cg.D"}
	}
	var handles []*hawkeye.RunningWorkload
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		handles = append(handles, sim.AddWorkload(n))
	}
	if len(handles) == 0 {
		fmt.Fprintln(os.Stderr, "no workloads given")
		os.Exit(2)
	}

	var dl hawkeye.Time
	if *deadline > 0 {
		dl = hawkeye.Time(*deadline * float64(hawkeye.Second))
	}
	if err := sim.Run(dl); err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}

	fmt.Printf("policy=%s machine=%.1fGiB now=%v free=%.0f%%\n",
		*policyName, *memGB, sim.K.Now(),
		100*(1-sim.K.Alloc.UsedFraction()))
	for _, h := range handles {
		fmt.Println(" ", sim.Report(h))
	}
	writeTrace := func(path, what string, fn func(w io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			if err = fn(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, what+":", err)
			os.Exit(1)
		}
		fmt.Printf("%s written to %s\n", what, path)
	}
	writeTrace(*traceEvents, "trace-events", sim.K.Trace.WriteJSONL)
	writeTrace(*vmstat, "vmstat", sim.K.Trace.WriteVmstat)
	writeTrace(*traceChrome, "trace-chrome", sim.K.Trace.WriteChromeTrace)

	if *series != "" {
		var csvOut *os.File
		if *csv != "" {
			f, err := os.Create(*csv)
			if err != nil {
				fmt.Fprintln(os.Stderr, "csv:", err)
				os.Exit(1)
			}
			defer f.Close()
			csvOut = f
			fmt.Fprintln(f, "series,t_seconds,value")
		}
		for _, name := range strings.Split(*series, ",") {
			s := sim.K.Rec.Series(strings.TrimSpace(name))
			fmt.Printf("series %s (%d points):\n", s.Name, len(s.Points))
			step := len(s.Points)/20 + 1
			for i := 0; i < len(s.Points); i += step {
				p := s.Points[i]
				fmt.Printf("  t=%-12v %v\n", p.T, p.V)
			}
			if csvOut != nil {
				for _, p := range s.Points {
					fmt.Fprintf(csvOut, "%s,%.6f,%g\n", s.Name, p.T.Seconds(), p.V)
				}
			}
		}
		if csvOut != nil {
			fmt.Println("csv written to", *csv)
		}
	}
}
