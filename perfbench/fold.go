package main

import (
	"bufio"
	"fmt"
	"path"
	"regexp"
	"strconv"
	"strings"
)

// cpuLayers are the layers a CPU profile is folded into, reported as
// cpu.<layer> shares of the profile's flat time. Every sample lands in
// exactly one layer, so the shares sum to 1.
var cpuLayers = []string{
	"memo", "snapshot", "cow", "workload", "kernel", "tlb", "vmm", "sim",
	"mem", "fault", "policy", "core", "virt", "ksm", "content",
	"harness", "telemetry", "runtime", "other",
}

// packageLayer maps a simulator package (the path element after
// "internal/") to its layer; packages not listed keep their own name.
var packageLayer = map[string]string{
	"memo":        "memo",
	"snapshot":    "snapshot",
	"workload":    "workload",
	"runner":      "harness",
	"experiments": "harness",
	"trace":       "telemetry",
	"introspect":  "telemetry",
	"metrics":     "telemetry",
}

// moduleFile matches the simulator module's prefix of a profile file path:
// "hawkeye/internal/" from the module root, or "hawkeye@v0.0.0/internal/"
// for a -trimpath build of a module that requires it.
var moduleFile = regexp.MustCompile(`(^|/)hawkeye(@[^/]*)?/internal/`)

// fileLayer folds one source file of a profile listing into its layer.
// Files of the simulator module (".../internal/<pkg>/...") go to their
// package's layer, except the chunk memo's per-package memo.go files (memo),
// the kernel's snapshot code (snapshot) and the chunked copy-on-write
// tables under mem/cow (cow). Go runtime files go to runtime; anything else
// (standard library, perfbench itself) is other.
func fileLayer(file string) string {
	file = strings.ReplaceAll(file, "\\", "/")
	if loc := moduleFile.FindStringIndex(file); loc != nil {
		rel := file[loc[1]:]
		parts := strings.Split(rel, "/")
		if len(parts) < 2 {
			return "other"
		}
		pkg, base := parts[0], path.Base(rel)
		switch {
		case base == "memo.go" && (pkg == "kernel" || pkg == "tlb" || pkg == "vmm"):
			return "memo"
		case pkg == "kernel" && base == "snapshot.go":
			return "snapshot"
		case pkg == "mem" && len(parts) > 2 && parts[1] == "cow":
			return "cow"
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(file, "runtime/") || strings.HasPrefix(file, "internal/runtime/") ||
		strings.Contains(file, "/src/runtime/") || strings.Contains(file, "/src/internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// foldListing parses the text of `go tool pprof -top -files` and returns
// each layer's share of the total flat time. Lines that are not node rows
// (the header block) are skipped.
func foldListing(listing string) (map[string]float64, error) {
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(strings.NewReader(listing))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// A node row: flat flat% sum% cum cum% file.
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		sec, err := parseProfileSeconds(f[0])
		if err != nil {
			continue // the column header row
		}
		file := strings.Join(f[5:], " ")
		flat[fileLayer(file)] += sec
		total += sec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("profile listing has no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = flat[l] / total
	}
	return shares, nil
}

// profileUnits scales pprof's time suffixes to seconds, longest first so
// "ms" is not read as "s".
var profileUnits = []struct {
	suffix string
	sec    float64
}{
	{"mins", 60}, {"min", 60}, {"hrs", 3600}, {"hr", 3600},
	{"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1},
}

// parseProfileSeconds reads one pprof duration cell ("1.25s", "830ms",
// "0") as seconds.
func parseProfileSeconds(cell string) (float64, error) {
	if cell == "0" {
		return 0, nil
	}
	for _, u := range profileUnits {
		if strings.HasSuffix(cell, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, u.suffix), 64)
			if err != nil {
				return 0, err
			}
			return v * u.sec, nil
		}
	}
	return 0, fmt.Errorf("not a duration: %q", cell)
}
