package core

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/bgp"
	"repro/internal/report"
)

// This file checks that the reproduction's headline results are
// properties of the modelled policy structure, not artifacts of one
// random world: the survey is repeated across generator seeds and the
// Table 1 fractions summarized.

// SeedRun is one seed's headline fractions (percent of classified
// prefixes, Internet2 experiment).
type SeedRun struct {
	Seed       int64
	AlwaysRE   float64
	AlwaysComm float64
	SwitchRE   float64
	Mixed      float64
	// Agreement is the cross-experiment agreement (Table 2).
	Agreement float64
}

// MultiSeedResult aggregates runs.
type MultiSeedResult struct {
	Runs []SeedRun
}

// RunMultiSeed executes the full two-experiment survey for each seed.
func RunMultiSeed(opts SurveyOptions, seeds []int64) *MultiSeedResult {
	return RunMultiSeedFrom(RunEnv{Survey: opts, Incremental: true}, seeds, nil, nil)
}

// RunMultiSeedFrom is RunMultiSeed on env's world configuration,
// engine mode, and worker bound, with an optional warm start: when
// warm is a survey already built with env.Survey at seeds[i] for some
// i, and pristine holds the bgp.Network.Snapshot of its network taken
// right after construction (before any experiment ran), that seed's
// run rewinds warm to the pristine fork point and reruns it instead of
// rebuilding an identical world from scratch. The reruns are not
// instrumented — the rewound survey is detached from its registry
// first, so it does not double-count the original run's metrics —
// and env.Metrics (optional) records only the warm-start accounting
// (snapshot_restore_total,
// core_warm_start_skipped_convergence_runs_total). Output is identical
// to the cold path: the rewound world replays the exact run a fresh
// build would, and the rerun leaves warm holding the same results it
// started with.
func RunMultiSeedFrom(env RunEnv, seeds []int64, warm *Survey, pristine []byte) *MultiSeedResult {
	out := &MultiSeedResult{}
	for _, seed := range seeds {
		o := env
		o.Survey.Topology.Seed = seed
		var s *Survey
		if warm != nil && len(pristine) > 0 && warm.Opts == o.Survey {
			if err := bgp.RestoreNetwork(bytes.NewReader(pristine), warm.Eco.Net); err == nil {
				warm.SetMetrics(nil)
				warm.Checkpoint = nil
				warm.Resume = nil
				env.Metrics.Counter("snapshot_restore_total").Inc()
				env.Metrics.Counter("core_warm_start_skipped_convergence_runs_total").Inc()
				warm.RunBoth()
				s = warm
			}
		}
		if s == nil {
			s = o.world(nil, o.Workers)
			s.RunBoth()
		}
		sum := Summarize(s.Eco, s.Internet2)
		cmp := Compare(s.Eco, s.SURF, s.Internet2)
		run := SeedRun{Seed: seed}
		if sum.TotalPrefixes > 0 {
			t := float64(sum.TotalPrefixes)
			run.AlwaysRE = 100 * float64(sum.PrefixCount[InfAlwaysRE]) / t
			run.AlwaysComm = 100 * float64(sum.PrefixCount[InfAlwaysCommodity]) / t
			run.SwitchRE = 100 * float64(sum.PrefixCount[InfSwitchToRE]) / t
			run.Mixed = 100 * float64(sum.PrefixCount[InfMixed]) / t
		}
		if cmp.Comparable > 0 {
			run.Agreement = 100 * float64(cmp.Same) / float64(cmp.Comparable)
		}
		out.Runs = append(out.Runs, run)
	}
	return out
}

// MeanStd returns the mean and standard deviation of a metric across
// runs, selected by the accessor.
func (m *MultiSeedResult) MeanStd(metric func(SeedRun) float64) (mean, std float64) {
	if len(m.Runs) == 0 {
		return 0, 0
	}
	for _, r := range m.Runs {
		mean += metric(r)
	}
	mean /= float64(len(m.Runs))
	for _, r := range m.Runs {
		d := metric(r) - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(m.Runs)))
	return mean, std
}

// Table renders per-seed rows plus the mean ± std line.
func (m *MultiSeedResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Seed robustness: Table 1 fractions across generator seeds (Internet2 experiment)",
		Headers: []string{"Seed", "Always R&E", "Always comm", "Switch", "Mixed", "Tbl2 agreement"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	for _, r := range m.Runs {
		t.AddRow(fmt.Sprint(r.Seed), f(r.AlwaysRE), f(r.AlwaysComm), f(r.SwitchRE), f(r.Mixed), f(r.Agreement))
	}
	ms := func(metric func(SeedRun) float64) string {
		mean, std := m.MeanStd(metric)
		return fmt.Sprintf("%.1f±%.1f", mean, std)
	}
	t.AddRow("mean±sd",
		ms(func(r SeedRun) float64 { return r.AlwaysRE }),
		ms(func(r SeedRun) float64 { return r.AlwaysComm }),
		ms(func(r SeedRun) float64 { return r.SwitchRE }),
		ms(func(r SeedRun) float64 { return r.Mixed }),
		ms(func(r SeedRun) float64 { return r.Agreement }))
	return t
}
