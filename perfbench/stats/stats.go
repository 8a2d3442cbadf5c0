// Package stats summarises repeated benchmark samples: median,
// quartiles, and the highest percentile that still has at least ten
// samples beyond it, always together with the sample count.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Tail is the number of samples that must lie beyond a reported tail
// percentile for it to mean anything.
const Tail = 10

// Summary is the distribution of one metric's samples.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// P is the tail percentile (0 when fewer than 2*Tail samples leave
	// no percentile above the median with Tail samples beyond it) and
	// PValue its value.
	P      int
	PValue float64
}

// Quantile returns the p-th quantile (0 < p < 1) of sorted samples by
// the exclusive method, the one Python's statistics.quantiles uses by
// default: position p*(n+1), linearly interpolated, clamped to the
// extremes.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n+1)
	if pos <= 1 {
		return sorted[0]
	}
	if pos >= float64(n) {
		return sorted[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i-1] + frac*(sorted[i]-sorted[i-1])
}

// TailPercentile is the highest whole percentile above the median that
// leaves at least Tail of n samples beyond it: 90 for 100 samples, 80
// for 50. It returns 0 when there is none.
func TailPercentile(n int) int {
	if n < 2*Tail {
		return 0
	}
	return 100 * (n - Tail) / n
}

// Summarize computes the Summary of samples (which it does not modify).
func Summarize(samples []float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := Summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Median = Quantile(s, 0.5)
	out.Q1 = Quantile(s, 0.25)
	out.Q3 = Quantile(s, 0.75)
	if p := TailPercentile(len(s)); p > 0 {
		out.P = p
		out.PValue = Quantile(s, float64(p)/100)
	}
	return out
}

// String renders the summary with its sample count.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	tail := "p-: -"
	if s.P > 0 {
		tail = fmt.Sprintf("p%d: %.6g", s.P, s.PValue)
	}
	return fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  %s  n=%d", s.Median, s.Q1, s.Q3, tail, s.N)
}
