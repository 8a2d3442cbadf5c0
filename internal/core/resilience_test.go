package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bgp"
)

// sweepOnce runs a single-point sweep at the given intensity on the
// small topology.
func sweepOnce(t *testing.T, intensity float64) FaultSweepPoint {
	t.Helper()
	opts := DefaultFaultSweepOptions()
	opts.Intensities = []float64{intensity}
	pts, _ := RunFaultSweepContext(context.Background(), opts)
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	return pts[0]
}

// The zero-intensity sweep point must reproduce the baseline pipeline
// bit-for-bit: same sequences, same inferences, same Table 1 counts as
// a plain experiment run with no fault subsystem attached.
func TestFaultSweepZeroIntensityBitForBit(t *testing.T) {
	s := NewSurvey(SmallSurveyOptions())
	x := NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, bgp.Time(9*3600))
	base := x.Run()
	baseSum := Summarize(s.Eco, base)

	pt := sweepOnce(t, 0)
	if pt.SessionFaults != 0 || pt.Brownouts != 0 || pt.FeedGaps != 0 {
		t.Fatalf("zero intensity generated faults: %+v", pt)
	}
	if len(pt.Result.PerPrefix) != len(base.PerPrefix) {
		t.Fatalf("prefix counts differ: %d vs %d", len(pt.Result.PerPrefix), len(base.PerPrefix))
	}
	for p, want := range base.PerPrefix {
		got := pt.Result.PerPrefix[p]
		if got == nil {
			t.Fatalf("prefix %v missing from sweep result", p)
		}
		if got.Inference != want.Inference {
			t.Fatalf("prefix %v: inference %v vs baseline %v", p, got.Inference, want.Inference)
		}
		if len(got.Seq) != len(want.Seq) {
			t.Fatalf("prefix %v: sequence lengths differ", p)
		}
		for i := range want.Seq {
			if got.Seq[i] != want.Seq[i] {
				t.Fatalf("prefix %v round %d: %v vs baseline %v", p, i, got.Seq[i], want.Seq[i])
			}
		}
	}
	for _, inf := range tableOrder {
		if pt.Summary.PrefixCount[inf] != baseSum.PrefixCount[inf] {
			t.Errorf("%v: %d vs baseline %d", inf, pt.Summary.PrefixCount[inf], baseSum.PrefixCount[inf])
		}
	}
	if pt.Summary.TotalPrefixes != baseSum.TotalPrefixes ||
		pt.Summary.Unresponsive != baseSum.Unresponsive ||
		pt.Summary.InsufficientData != 0 {
		t.Errorf("totals diverged: %+v vs %+v", pt.Summary, baseSum)
	}
}

// At high intensity the survey must not panic, must classify every
// probed prefix into exactly one outcome, and must actually have
// injected faults.
func TestFaultSweepHighIntensityOutcomes(t *testing.T) {
	pt := sweepOnce(t, 1)
	if pt.SessionFaults == 0 && pt.Brownouts == 0 && pt.FeedGaps == 0 {
		t.Fatal("intensity 1 injected nothing")
	}
	seen := 0
	for p, pr := range pt.Result.PerPrefix {
		seen++
		if pr.Inference >= numInferences {
			t.Fatalf("prefix %v: out-of-range inference %d", p, pr.Inference)
		}
		if pr.Confidence < 0 || pr.Confidence > 1 {
			t.Fatalf("prefix %v: confidence %v out of range", p, pr.Confidence)
		}
		switch pr.Inference {
		case InfUnresponsive:
			if pr.Observed != 0 {
				t.Fatalf("prefix %v: unresponsive but observed %d rounds", p, pr.Observed)
			}
		case InfInsufficientData:
			if pr.Observed == 0 || pr.Observed >= DefaultFaultSweepOptions().Quorum {
				t.Fatalf("prefix %v: insufficient-data with %d observed rounds", p, pr.Observed)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no prefixes classified")
	}
}

// Same seed, same intensity, fresh worlds: identical outcomes.
func TestFaultSweepDeterministic(t *testing.T) {
	a := sweepOnce(t, 0.5)
	b := sweepOnce(t, 0.5)
	if a.SessionFaults != b.SessionFaults || a.Brownouts != b.Brownouts || a.FeedGaps != b.FeedGaps {
		t.Fatalf("schedules diverged: %+v vs %+v", a, b)
	}
	if a.Accuracy != b.Accuracy || a.MeanConfidence != b.MeanConfidence {
		t.Fatalf("scores diverged: %v/%v vs %v/%v", a.Accuracy, a.MeanConfidence, b.Accuracy, b.MeanConfidence)
	}
	for p, pa := range a.Result.PerPrefix {
		if pb := b.Result.PerPrefix[p]; pb == nil || pb.Inference != pa.Inference {
			t.Fatalf("prefix %v diverged between identical sweeps", p)
		}
	}
}

func TestFaultSweepTable(t *testing.T) {
	opts := DefaultFaultSweepOptions()
	opts.Intensities = []float64{0, 1}
	pts, _ := RunFaultSweepContext(context.Background(), opts)
	out := FaultSweepTable(pts).String()
	if !strings.Contains(out, "0.00") || !strings.Contains(out, "1.00") {
		t.Errorf("table missing intensity rows:\n%s", out)
	}
	if !strings.Contains(out, "Accuracy") {
		t.Errorf("table missing accuracy column:\n%s", out)
	}
}
