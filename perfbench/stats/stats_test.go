package stats

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: Summarize must sort
	}
	return s
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{100, 90}, {50, 80}, {60, 83}, {20, 50}, {19, 0}, {1, 0}, {1000, 99},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestTailHasTenBeyond checks the defining property: at least Tail
// samples lie strictly above the reported percentile's value.
func TestTailHasTenBeyond(t *testing.T) {
	for n := 2 * Tail; n <= 300; n++ {
		s := Summarize(seq(n))
		beyond := 0
		for _, v := range seq(n) {
			if v > s.PValue {
				beyond++
			}
		}
		if beyond < Tail {
			t.Fatalf("n=%d: p%d = %v has %d samples beyond, want >= %d", n, s.P, s.PValue, beyond, Tail)
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method against values
// from Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := Summarize(seq(10))
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	s = Summarize([]float64{4, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", s.Q1, s.Median, s.Q3)
	}
}

func TestSummarizeSmall(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.P != 0 {
		t.Fatalf("one sample: %+v", s)
	}
	if s := Summarize(nil); s.N != 0 || s.String() != "n=0" {
		t.Fatalf("no samples: %+v", s)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile of nothing must be NaN")
	}
	if s := Summarize(seq(100)); s.P != 90 {
		t.Fatalf("100 samples report p%d, want p90", s.P)
	}
	if s := Summarize(seq(50)); s.P != 80 {
		t.Fatalf("50 samples report p%d, want p80", s.P)
	}
}
