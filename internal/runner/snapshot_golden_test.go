package runner

import (
	"testing"

	"hawkeye/internal/experiments"
)

// TestSnapshotForkMatchesFresh is the snapshot/fork equivalence gate: the
// experiments that pre-fragment their machines (and therefore fork them from
// the process-wide warm-up cache) run twice — once with the cache and once
// with NoSnapshotCache forcing a fresh build-and-fragment per machine — and
// the rendered tables must be byte-identical. A small sweep grid is held to
// the same contract row by row. Fork earns its speedup purely by replaying
// the warmed-up state copy-on-write, so any divergence (a substrate field
// missed by a fork, an RNG stream off by one draw, an event scheduled in a
// different order) is a bug, not noise.
func TestSnapshotForkMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fragmented experiments twice; skipped in -short")
	}
	if raceEnabled {
		// The comparison is about deterministic output equality, which race
		// instrumentation cannot affect; the race suite still exercises
		// concurrent forks via the parallel-runner tests.
		t.Skip("skipped under -race: ~10x slower and race-insensitive by construction")
	}
	// The experiments that fragment memory before running — the only users
	// of the snapshot cache.
	ids := []string{"fig5", "fig8"}
	opts := testOpts()

	freshOpts := opts
	freshOpts.NoSnapshotCache = true
	fresh := make(map[string]string, len(ids))
	for _, res := range Run(ids, freshOpts, 0) {
		if res.Error != "" {
			t.Fatalf("fresh %s: %s", res.ID, res.Error)
		}
		fresh[res.ID] = res.Table
	}

	for _, res := range Run(ids, opts, 0) {
		if res.Error != "" {
			t.Fatalf("cached %s: %s", res.ID, res.Error)
		}
		if res.Table != fresh[res.ID] {
			t.Errorf("%s: snapshot-forked output differs from fresh build\nfresh:\n%s\nforked:\n%s",
				res.ID, fresh[res.ID], res.Table)
		}
	}

	t.Run("sweep", func(t *testing.T) {
		spec := experiments.SweepSpec{
			Workload:   "graph500",
			Policies:   []string{"linux", "hawkeye-pmu"},
			Thresholds: []float64{0.3, 0.9},
			Seeds:      2,
			FragKeep:   0.15,
		}
		freshRows := RunSweep(spec, freshOpts, 2).Rows
		cachedRows := RunSweep(spec, opts, 2).Rows
		if len(freshRows) != len(cachedRows) {
			t.Fatalf("fresh sweep has %d rows, cached %d", len(freshRows), len(cachedRows))
		}
		var dirty int64
		for i, c := range cachedRows {
			f := freshRows[i]
			if c.Error != "" || f.Error != "" {
				t.Fatalf("cell %s/%g/seed=%d: cached %q, fresh %q", c.Policy, c.Threshold, c.Seed, c.Error, f.Error)
			}
			// CowDirtyChunks counts the forked machine's copy-on-write
			// materializations: harness telemetry that is zero on a fresh
			// build by construction, not a simulation result.
			dirty += c.CowDirtyChunks
			c.CowDirtyChunks, f.CowDirtyChunks = 0, 0
			if c != f {
				t.Errorf("row %d: snapshot-forked sweep row differs from fresh build\nfresh:  %+v\nforked: %+v", i, f, c)
			}
		}
		if dirty == 0 {
			t.Error("cached sweep materialized no chunk — cells never forked from the snapshot cache")
		}
	})
}
