package repro

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its artifact from the shared simulated survey
// and prints it once (-v shows the output), so `go test -bench=.`
// doubles as the reproduction harness.
//
// The shared survey runs at the reduced scale so benchmark iteration
// stays fast; `cmd/resurvey` produces the same artifacts at the
// paper's full scale.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asn"
	"repro/internal/core"
	"repro/internal/irr"
)

var (
	benchOnce   sync.Once
	benchSurvey *core.Survey
	benchViews  map[asn.AS]*core.OriginView
)

func benchSetup(b *testing.B) (*core.Survey, map[asn.AS]*core.OriginView) {
	b.Helper()
	benchOnce.Do(func() {
		s := core.NewSurvey(core.SmallSurveyOptions())
		s.RunBoth()
		benchSurvey = s
		benchViews = core.ComputeOriginViews(s.Eco)
	})
	return benchSurvey, benchViews
}

// BenchmarkTable1Inference regenerates Table 1: per-prefix route
// preference categories for both experiments.
func BenchmarkTable1Inference(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Summarize(s.Eco, s.SURF)
		_ = core.Summarize(s.Eco, s.Internet2)
	}
	b.StopTimer()
	b.Logf("\n%s\n%s", core.Summarize(s.Eco, s.SURF).Table(), core.Summarize(s.Eco, s.Internet2).Table())
}

// BenchmarkTable2Comparison regenerates Table 2: cross-experiment
// prefix-level agreement.
func BenchmarkTable2Comparison(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	var cmp *core.Comparison
	for i := 0; i < b.N; i++ {
		cmp = core.Compare(s.Eco, s.SURF, s.Internet2)
	}
	b.StopTimer()
	b.Logf("\n%s\nNIKS-attributable differences: %d of %d", cmp.Table(), cmp.DifferencesViaNIKS, cmp.Different)
}

// BenchmarkTable3Congruence regenerates Table 3: inference vs public
// BGP view congruence.
func BenchmarkTable3Congruence(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	var cong *core.CongruenceResult
	for i := 0; i < b.N; i++ {
		cong = core.Congruence(s.Eco, s.Internet2, 11537, 396955)
	}
	b.StopTimer()
	b.Logf("\n%s\nVRF-split explanations: %d", cong.Table(), cong.VRFExplained)
}

// BenchmarkTable4Prepending regenerates Table 4: inference vs relative
// origin prepending. The origin views (the expensive converged-routing
// solve) are computed once in setup; the benchmark measures the
// table-building pass.
func BenchmarkTable4Prepending(b *testing.B) {
	s, views := benchSetup(b)
	b.ResetTimer()
	var pa *core.PrependAnalysis
	for i := 0; i < b.N; i++ {
		pa = core.AnalyzePrepending(s.Eco, s.Internet2, views)
	}
	b.StopTimer()
	b.Logf("\n%s", pa.Table())
}

// BenchmarkFigure3Churn regenerates Figure 3: the measurement-prefix
// update timeline at public collectors across the nine configurations.
func BenchmarkFigure3Churn(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	var tl *core.ChurnTimeline
	for i := 0; i < b.N; i++ {
		tl = core.BuildChurnTimeline(s.Internet2, 11537)
	}
	b.StopTimer()
	b.Logf("\n%s", tl)
	surf := core.BuildChurnTimeline(s.SURF, 1125)
	b.Logf("\n%s", surf)
}

// BenchmarkFigure5Geography regenerates Figure 5: the share of ASes
// per region that RIPE (equal localpref) reaches over R&E routes.
func BenchmarkFigure5Geography(b *testing.B) {
	s, views := benchSetup(b)
	db := core.BuildGeoDB(s.Eco)
	b.ResetTimer()
	var ra *core.RIPEAnalysis
	for i := 0; i < b.N; i++ {
		ra = core.AnalyzeRIPE(s.Eco, views, db)
	}
	b.StopTimer()
	eu, us := ra.Series()
	b.Logf("\nRIPE via R&E: %d/%d prefixes, %d/%d ASes\n%s\n%s",
		ra.PrefixesViaRE, ra.Prefixes, ra.ASesViaRE, ra.ASes, eu, us)
}

// BenchmarkFigure7AgeFSM regenerates Figure 7: the state diagrams for
// the interplay of AS path length and route age under the experiment
// schedule.
func BenchmarkFigure7AgeFSM(b *testing.B) {
	cases := core.Figure7Cases()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			_ = core.SimulateAgeFSM(c)
		}
	}
	b.StopTimer()
	b.Logf("\n%s", core.Figure7Table())
}

// BenchmarkFigure8SwitchCDF regenerates Figure 8: CDFs of the
// configuration at which Participant vs Peer-NREN ASes switched to the
// R&E route.
func BenchmarkFigure8SwitchCDF(b *testing.B) {
	s, _ := benchSetup(b)
	sw := core.SwitchPrefixes(s.SURF, s.Internet2)
	b.ResetTimer()
	var surf, june *core.SwitchCDF
	for i := 0; i < b.N; i++ {
		surf = core.BuildSwitchCDF(s.Eco, s.SURF, sw)
		june = core.BuildSwitchCDF(s.Eco, s.Internet2, sw)
	}
	b.StopTimer()
	for _, cdf := range []*core.SwitchCDF{surf, june} {
		p, n := cdf.Series()
		b.Logf("\n%s\n%s", p, n)
	}
}

// BenchmarkPredictionModels regenerates the implication analysis: the
// accuracy of Gao-Rexford, prepend-signal, and inferred-localpref
// route predictors against observed per-round return routes.
func BenchmarkPredictionModels(b *testing.B) {
	s, views := benchSetup(b)
	b.ResetTimer()
	var pe *core.PredictionEval
	for i := 0; i < b.N; i++ {
		pe = core.EvaluatePredictors(s.Eco, s.SURF, s.Internet2, views, irr.FromEcosystem(s.Eco, irr.DefaultGenConfig()))
	}
	b.StopTimer()
	b.Logf("\n%s", pe.Table())
}

// BenchmarkAblations regenerates the schedule-subset and target-budget
// ablations of the experiment design.
func BenchmarkAblations(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	var rr []core.RoundsAblationRow
	var tr []core.TargetsAblationRow
	for i := 0; i < b.N; i++ {
		rr = core.AblateRounds(s.Internet2, core.StandardSubsets())
		tr = core.AblateTargets(s.Internet2, []int{1, 2, 3})
	}
	b.StopTimer()
	gaps := core.AblateRoundGap([]int{600, 1800, 3600}, core.SmallSurveyOptions())
	b.Logf("\n%s\n%s\n%s", core.RoundsAblationTable(rr), core.TargetsAblationTable(tr), core.GapAblationTable(gaps))
}

// BenchmarkSeedRobustness reruns the survey across generator seeds and
// reports the spread of the Table 1 fractions.
func BenchmarkSeedRobustness(b *testing.B) {
	var m *core.MultiSeedResult
	for i := 0; i < b.N; i++ {
		m = core.RunMultiSeed(core.SmallSurveyOptions(), []int64{1, 2, 3})
	}
	b.StopTimer()
	b.Logf("\n%s", m.Table())
}

// BenchmarkFullExperiment measures one complete experiment run
// (announce, nine configurations, probing, classification) on a fresh
// world — the end-to-end cost of the method.
func BenchmarkFullExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.NewSurvey(core.SmallSurveyOptions())
		b.StartTimer()
		x := core.NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, 9*3600)
		_ = x.Run()
	}
}

// BenchmarkIncrementalSweep compares the nine-config sweep under full
// reconvergence and incremental recomputation. Both modes produce
// byte-identical output (TestIncrementalEquivalenceMatrix); the
// decision-evals/op metric counts full decision-process evaluations —
// the work the dirty-set propagation exists to avoid — and must show
// the incremental mode at least 5x below the reference.
func BenchmarkIncrementalSweep(b *testing.B) {
	for _, mode := range []struct {
		name        string
		incremental bool
	}{{"full", false}, {"incremental", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var evals int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := core.NewSurvey(core.SmallSurveyOptions())
				s.SetIncremental(mode.incremental)
				b.StartTimer()
				x := core.NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, 9*3600)
				_ = x.Run()
				evals += s.Eco.Net.Stats().FullScans
			}
			b.ReportMetric(float64(evals)/float64(b.N), "decision-evals/op")
		})
	}
}

// BenchmarkOriginViews measures the converged-routing solve behind
// Tables 3-4 and Figure 5 (one static solution per origin AS).
func BenchmarkOriginViews(b *testing.B) {
	s, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.ComputeOriginViews(s.Eco)
	}
}

// BenchmarkFaultSweep measures the robustness harness: a full
// three-point fault-intensity sweep, each point rebuilding the world,
// injecting its seeded schedule, and scoring the inference against
// generator ground truth.
func BenchmarkFaultSweep(b *testing.B) {
	opts := core.DefaultFaultSweepOptions()
	opts.Intensities = []float64{0, 0.5, 1}
	var pts []core.FaultSweepPoint
	for i := 0; i < b.N; i++ {
		pts, _ = core.RunFaultSweepContext(context.Background(), opts)
	}
	b.StopTimer()
	b.Logf("\n%s", core.FaultSweepTable(pts))
}

// BenchmarkParallelSweep measures the sharded fault-intensity sweep at
// increasing worker counts. The sweep points are independent
// world-rebuild-and-score runs, so wall clock should fall roughly
// linearly with workers up to the point count (four intensities here);
// the deterministic merge keeps the output identical at every width.
func BenchmarkParallelSweep(b *testing.B) {
	intensities := core.SweepIntensities(0.5)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.DefaultFaultSweepOptions()
			opts.Intensities = intensities
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				_, _ = core.RunFaultSweepContext(context.Background(), opts)
			}
		})
	}
}
