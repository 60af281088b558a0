package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"regexp"
	"sort"
	"strings"
)

// minAbove is how many samples must lie above a percentile before it is
// reported: a tail percentile resting on fewer samples is noise.
const minAbove = 10

// percentile returns the nearest-rank q-quantile of xs (rank ceil(q*n)) and
// whether it may be reported: at least minAbove samples must rank above it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minAbove
}

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// wallLine matches output lines that report host time and therefore differ
// between runs of the same seed: the CLI's "(fig8 completed in 3.1s wall)"
// and "total: ... in 9.0s wall" trailers and any note quoting a wall time.
var wallLine = regexp.MustCompile(`(?i)(completed in|^total:|\bwall\b|\bhost time\b)`)

// stripWall drops wall-time lines from an output text so its digest
// depends on simulated results only.
func stripWall(text string) string {
	lines := strings.Split(text, "\n")
	out := lines[:0]
	for _, l := range lines {
		if !wallLine.MatchString(l) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// digest is the short content hash of one unit's stripped output.
func digest(text string) string {
	sum := sha256.Sum256([]byte(stripWall(text)))
	return hex.EncodeToString(sum[:8])
}
