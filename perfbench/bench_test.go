package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	for _, d := range endToEndMetrics {
		check(d.name)
	}
	for _, sec := range layerSections() {
		for _, d := range sec.metrics {
			check(d.name)
		}
	}
	for _, bad := range []string{"", "wall s", "cpu/memo", "p50{ms}"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q should be rejected", bad)
		}
	}
}

// TestPercentileHandComputed checks the nearest-rank rule on 1..20: p50 is
// rank 10 (value 10, ten samples above), p90 is rank 18 (value 18, two
// above — too few to report).
func TestPercentileHandComputed(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if v, ok := percentile(xs, 0.5); v != 10 || !ok {
		t.Errorf("p50 = %v, %v; want 10, true", v, ok)
	}
	if v, ok := percentile(xs, 0.9); v != 18 || ok {
		t.Errorf("p90 = %v, %v; want 18, false", v, ok)
	}
	if xs[0] != 20 {
		t.Error("percentile sorted its input in place")
	}
}

// TestPercentileNeedsTenAbove checks the reporting rule at its edge: with n
// samples the q-percentile has n-ceil(q*n) samples above it.
func TestPercentileNeedsTenAbove(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{180, 0.9, true}, // 18 above, the sweep grid's p90
		{100, 0.9, true}, // exactly 10 above
		{99, 0.9, false}, // 9 above
		{19, 0.5, false}, // 9 above
		{20, 0.5, true},  // 10 above
		{0, 0.5, false},
		{18, 0.5, false}, // the suite's 18 experiments
	}
	for _, c := range cases {
		if _, ok := percentile(mk(c.n), c.q); ok != c.want {
			t.Errorf("percentile(n=%d, q=%g) reportable = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func TestStripWall(t *testing.T) {
	in := strings.Join([]string{
		"== fig8: Fig. 8 ==",
		"policy  runtime",
		"linux   12.0s",
		"(fig8 completed in 25.3s wall)",
		"total: 1 experiments in 25.3s wall",
		"note: simulated seconds only",
	}, "\n")
	want := strings.Join([]string{
		"== fig8: Fig. 8 ==",
		"policy  runtime",
		"linux   12.0s",
		"note: simulated seconds only",
	}, "\n")
	if got := stripWall(in); got != want {
		t.Errorf("stripWall:\n%s\nwant:\n%s", got, want)
	}
	if digest(in) != digest(want) {
		t.Error("digest depends on wall-time lines")
	}
	if digest(want) == digest(want+"\nlinux   12.1s") {
		t.Error("digest ignores a changed result line")
	}
}

// syntheticListing is a trimmed `go tool pprof -top -files` listing: 10s
// of flat time in total.
const syntheticListing = `File: perfbench-bin
Type: cpu
Duration: 5s, Total samples = 10s (200.00%)
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
        4s 40.00% 40.00%        4s 40.00%  hawkeye@v0.0.0/internal/tlb/tlb.go
     1.50s 15.00% 55.00%     1.50s 15.00%  hawkeye@v0.0.0/internal/tlb/memo.go
     500ms  5.00% 60.00%     3.00s 30.00%  hawkeye@v0.0.0/internal/kernel/memo.go
        1s 10.00% 70.00%        1s 10.00%  hawkeye@v0.0.0/internal/memo/memo.go
     750ms  7.50% 77.50%     750ms  7.50%  hawkeye@v0.0.0/internal/mem/cow/cow.go
     250ms  2.50% 80.00%     250ms  2.50%  hawkeye@v0.0.0/internal/mem/allocator.go
     100ms  1.00% 81.00%     100ms  1.00%  hawkeye@v0.0.0/internal/kernel/snapshot.go
     900ms  9.00% 90.00%     900ms  9.00%  runtime/mgc.go
     500ms  5.00% 95.00%     500ms  5.00%  internal/runtime/maps/table.go
     400ms  4.00% 99.00%     400ms  4.00%  sort/sort.go
     100ms  1.00%   100%     100ms  1.00%  hawkeye@v0.0.0/internal/runner/sweep.go
         0     0%   100%     9.90s 99.00%  hawkeye@v0.0.0/internal/kernel/kernel.go
`

// TestFoldListingHandComputed folds the synthetic listing and checks the
// shares worked out by hand: memo = (1.5+0.5+1)/10, runtime = (0.9+0.5)/10.
func TestFoldListingHandComputed(t *testing.T) {
	shares, err := foldListing(syntheticListing)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"tlb": 0.4, "memo": 0.3, "cow": 0.075, "mem": 0.025, "snapshot": 0.01,
		"runtime": 0.14, "other": 0.04, "harness": 0.01, "kernel": 0,
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("cpu.%s = %v, want %v", l, shares[l], w)
		}
	}
}

func TestFileLayer(t *testing.T) {
	cases := map[string]string{
		"hawkeye/internal/vmm/memo.go":                   "memo",
		"hawkeye/internal/vmm/access.go":                 "vmm",
		"/src/hawkeye/internal/kernel/batch.go":          "kernel",
		"hawkeye@v0.0.0/internal/workload/trace.go":      "workload",
		"hawkeye@v0.0.0/internal/snapshot/cache.go":      "snapshot",
		"hawkeye@v0.0.0/internal/introspect/registry.go": "telemetry",
		"hawkeye@v0.0.0/internal/experiments/fig8.go":    "harness",
		"hawkeye@v0.0.0/internal/analysis/facts.go":      "other",
		"/usr/local/go/src/runtime/malloc.go":            "runtime",
		"sync/atomic/type.go":                            "other",
		"[perfbench-bin]":                                "other",
	}
	for file, want := range cases {
		if got := fileLayer(file); got != want {
			t.Errorf("fileLayer(%q) = %q, want %q", file, got, want)
		}
	}
}

func TestFoldListingRejectsEmpty(t *testing.T) {
	if _, err := foldListing("File: x\nType: cpu\n"); err == nil {
		t.Error("empty listing folded without error")
	}
}

func TestParseProfileSeconds(t *testing.T) {
	cases := map[string]float64{"0": 0, "1.25s": 1.25, "830ms": 0.83, "10us": 1e-5, "2mins": 120}
	for in, want := range cases {
		got, err := parseProfileSeconds(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseProfileSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseProfileSeconds("flat"); err == nil {
		t.Error("header cell parsed as a duration")
	}
}

// TestBenchmarkJSONMatchesPrinted holds BENCHMARK.json at the repository
// root to what perfbench prints: the same metric names and units, in both
// lists, and only workloads perfbench knows.
func TestBenchmarkJSONMatchesPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end = %v, perfbench prints %v", e2e, endToEndMetrics)
	}
	var printed []metricDef
	for _, sec := range layerSections() {
		printed = append(printed, sec.metrics...)
	}
	if !reflect.DeepEqual(layers, printed) {
		t.Errorf("per_layer = %v\nperfbench prints %v", layers, printed)
	}
}
