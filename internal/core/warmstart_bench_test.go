package core

import (
	"context"
	"testing"

	"repro/internal/telemetry"
)

// sweepDecisionEvals runs a four-point fault sweep and returns the
// BGP decision-process evaluations it cost: the total across the whole
// sweep, and the share spent on initial convergence — the part the
// warm start amortizes (cold pays it once per intensity point, warm
// once for the whole sweep; the per-point measurement work is the
// experiment itself and is identical in both modes).
func sweepDecisionEvals(warm bool) (total, converge int64) {
	opts := DefaultFaultSweepOptions()
	opts.Intensities = []float64{0, 0.1, 0.25, 0.5}
	opts.WarmStart = warm
	opts.Metrics = telemetry.New()
	RunFaultSweepContext(context.Background(), opts)
	return opts.Metrics.Counter("bgp_decision_runs_total").Value(),
		opts.Metrics.Counter("core_initial_convergence_decision_runs_total").Value()
}

// BenchmarkWarmStartSweep compares the fault sweep with and without
// the shared-convergence warm start. converge-evals/op is the number
// the warm start attacks; decision-evals/op is the sweep's total
// decision-process work for context.
func BenchmarkWarmStartSweep(b *testing.B) {
	for _, mode := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var total, converge int64
			for i := 0; i < b.N; i++ {
				t, c := sweepDecisionEvals(mode.warm)
				total += t
				converge += c
			}
			b.ReportMetric(float64(total)/float64(b.N), "decision-evals/op")
			b.ReportMetric(float64(converge)/float64(b.N), "converge-evals/op")
		})
	}
}

// TestWarmStartSweepSavings pins the acceptance bound: over a
// four-intensity ladder the warm sweep must spend at least 3x fewer
// decision-process evaluations on initial convergence than the cold
// sweep (it converges once instead of four times, so the expected
// ratio is exactly 4x), and must never cost more in total.
func TestWarmStartSweepSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced fault sweep twice")
	}
	coldTotal, coldConv := sweepDecisionEvals(false)
	warmTotal, warmConv := sweepDecisionEvals(true)
	if coldConv <= 0 || warmConv <= 0 {
		t.Fatalf("no convergence evaluations recorded: cold=%d warm=%d", coldConv, warmConv)
	}
	if coldConv < 3*warmConv {
		t.Fatalf("warm start saved too little convergence work: cold=%d warm=%d (%.2fx, want >= 3x)",
			coldConv, warmConv, float64(coldConv)/float64(warmConv))
	}
	if warmTotal > coldTotal {
		t.Fatalf("warm sweep cost more in total: cold=%d warm=%d", coldTotal, warmTotal)
	}
	t.Logf("decision evaluations: total cold=%d warm=%d, convergence cold=%d warm=%d (%.2fx)",
		coldTotal, warmTotal, coldConv, warmConv, float64(coldConv)/float64(warmConv))
}
