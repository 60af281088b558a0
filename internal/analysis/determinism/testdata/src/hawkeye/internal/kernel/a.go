// Package kernel impersonates a simulation package so the determinism
// analyzer treats it as covered code.
package kernel

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Duration {
	t0 := time.Now()      // want `time\.Now reads the wall clock`
	return time.Since(t0) // want `time\.Since reads the wall clock`
}

func globalRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand`
	return rand.Intn(10)               // want `global math/rand`
}

// privateRand is fine: a seeded, private source is deterministic.
func privateRand() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10)
}

func mapSumFloat(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want `map iteration order is random`
	}
	return sum
}

func mapSideEffects(m map[string]int, out []int) {
	for _, v := range m {
		recordValue(v) // want `call with discarded result`
	}
}

func recordValue(int) {}

// collectSorted is the sanctioned pattern: gather keys, then sort.
func collectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `random order`
	}
	return keys
}

// mapMutateSelf is fine: deleting from (or writing into) the ranged map
// itself converges to the same final content regardless of visit order.
func mapMutateSelf(m map[string]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}

// lookupOnly is fine: no outer state is written, nothing escapes.
func lookupOnly(m map[string]int) bool {
	for _, v := range m {
		if v > 10 {
			return true
		}
	}
	return false
}

func returnFirstKey(m map[string]int) string {
	for k := range m {
		return k // want `depends on which key is visited first`
	}
	return ""
}

func spawn() {
	go recordValue(1) // want `goroutine outside internal/runner`
}

// suppressed shows the //lint:allow escape hatch: no diagnostic may escape.
func suppressed() time.Time {
	//lint:allow determinism testdata exercises the suppression path
	return time.Now()
}

func badDirectives() {
	//lint:allow determinism // want `a reason is required`
	//lint:allow nosuchanalyzer because reasons // want `unknown analyzer`
	_ = 0
}
