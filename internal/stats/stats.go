// Package stats provides the summary statistics the paper's data collection
// uses (§4.3: "we take the mean throughput of ten runs"), plus confidence
// intervals and speedup helpers for kbench's tables (DESIGN.md §7).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of repeated measurements.
type Summary struct {
	N      int
	Mean   float64
	Stdev  float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary; it panics on an empty sample (a harness
// bug, not a runtime condition).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stdev = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// CI95 returns the half-width of the 95% confidence interval for the mean,
// using the normal approximation (adequate for the harness's ≥5 runs).
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Stdev / math.Sqrt(float64(s.N))
}

// RelStdev returns the coefficient of variation (stdev/mean), or 0 for a
// zero mean.
func (s Summary) RelStdev() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stdev / s.Mean
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95(), s.N)
}

// Speedup returns b/a, guarding a zero baseline.
func Speedup(baseline, improved float64) float64 {
	if baseline == 0 {
		return 0
	}
	return improved / baseline
}

// GeoMean returns the geometric mean of positive values; non-positive
// entries are skipped (they would make the product meaningless).
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
