package core

import (
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Pipeline is one run's resolved configuration: the job's options with
// its scale and seed resolved into a world configuration, plus the
// run's telemetry registry. JobOptions.Pipeline builds it; every run
// mode asks it for its wired components:
//
//	p := core.JobOptions{Small: true, Seed: 1, Workers: 4, Incremental: true}.Pipeline(reg)
//	s := p.NewSurvey()
//	s.RunBoth()
//
// Seed derivation: the pipeline holds ONE session seed. Everything
// else derives from it deterministically — the topology generator uses
// it directly, the world's probe-loss streams use cfg.Seed+1 split
// per (round, prefix) via parallel.SubSeed (see simnet.LossStream),
// and the fault sweep's schedule seed is
// parallel.SubSeed(seed, faultSeedStream). Bare seed parameters that
// predate the pipeline (SplitOutages, simnet.World.InjectDormancy)
// keep their own documented conventions.
type Pipeline struct {
	job JobOptions
	env RunEnv
}

// RunEnv is how a run builds its worlds, declared once for every run
// mode: the world configuration, the BGP engine mode, the telemetry
// registry, and the worker bound.
type RunEnv struct {
	// Survey is the world configuration the run's worlds are built
	// from. Sweeps rebuild it fresh at every point, so points are
	// independent and each is exactly reproducible.
	Survey SurveyOptions
	// Incremental selects the BGP engine's recomputation mode for every
	// world: true propagates only route deltas through a dirty-set work
	// queue, false keeps the full-reconvergence reference path. Both
	// modes produce identical observable output
	// (TestIncrementalEquivalenceMatrix proves it); only the
	// work-accounting telemetry differs.
	Incremental bool
	// Metrics receives the run's telemetry; nil disables it at zero
	// cost. Everything recorded is identical at any Workers value.
	Metrics *telemetry.Registry
	// Workers bounds the run's parallel loops (probing and
	// classification, sweep points, candidate evaluations); <= 0 means
	// GOMAXPROCS. Output is identical for any value.
	Workers int
}

// world builds one survey world from e.Survey on e's engine mode,
// instrumented with reg (nil: uninstrumented), with workers bounding
// its probing and classification. Every world a core run builds comes
// from here.
func (e RunEnv) world(reg *telemetry.Registry, workers int) *Survey {
	s := NewSurvey(e.Survey)
	s.SetIncremental(e.Incremental)
	s.SetMetrics(reg)
	s.Workers = workers
	s.Prober.Workers = workers
	return s
}

// faultSeedStream is the parallel.SubSeed stream id reserved for
// deriving the fault-sweep schedule seed from the session seed, so a
// different session seed yields a different (but reproducible) fault
// schedule without a second flag.
const faultSeedStream = 0xFA17

// scenarioSeedStream and rovSeedStream likewise derive the scenario
// schedule seed (attacker/leaker draw, event timing) and the ROV
// deployment draw seed from the session seed.
const (
	scenarioSeedStream = 0x5CE0
	rovSeedStream      = 0x40A1
)

// Seed returns the resolved session (topology) seed.
func (p *Pipeline) Seed() int64 { return p.env.Survey.Topology.Seed }

// SurveyOptions returns the resolved survey configuration.
func (p *Pipeline) SurveyOptions() SurveyOptions { return p.env.Survey }

// NewSurvey builds a fully wired survey: world, seed selection,
// prober, metrics, and worker bounds, all from the job's options.
func (p *Pipeline) NewSurvey() *Survey {
	s := p.env.world(p.env.Metrics, p.env.Workers)
	p.env.Metrics.SetWorkers(parallel.Workers(p.env.Workers))
	return s
}

// reduced is the run environment of the sweeps, which rebuild
// reduced-scale worlds carrying the session topology seed.
func (p *Pipeline) reduced() RunEnv {
	env := p.env
	env.Survey = SmallSurveyOptions()
	env.Survey.Topology.Seed = p.Seed()
	return env
}

// FaultSweepOptions returns the sweep configuration the pipeline
// implies: reduced-scale worlds, a schedule seed derived via
// parallel.SubSeed(seed, faultSeedStream), and the intensity ladder up
// to the job's max intensity.
func (p *Pipeline) FaultSweepOptions() FaultSweepOptions {
	fopts := DefaultFaultSweepOptions()
	fopts.RunEnv = p.reduced()
	fopts.FaultSeed = parallel.SubSeed(p.Seed(), faultSeedStream)
	if p.job.Faults > 0 {
		fopts.Intensities = SweepIntensities(p.job.Faults)
	}
	return fopts
}

// OptimizeOptions returns the policy-optimization configuration the
// pipeline implies: the search seed derived via
// parallel.SubSeed(seed, optimizeSeedStream), and the job's objective,
// budget, and strategy (hillclimb when unset).
func (p *Pipeline) OptimizeOptions() OptimizeOptions {
	strategy := p.job.Strategy
	if strategy == "" {
		strategy = "hillclimb"
	}
	return OptimizeOptions{
		RunEnv:     p.env,
		Objective:  p.job.Objective,
		Strategy:   strategy,
		Budget:     p.job.Budget,
		SearchSeed: parallel.SubSeed(p.Seed(), optimizeSeedStream),
	}
}

// ScenarioSweepOptions returns the scenario-sweep configuration the
// pipeline implies: reduced-scale worlds, schedule and deployment
// seeds derived via parallel.SubSeed, and the adoption ladder capped
// at the job's ROV fraction (0 = the full default ladder).
func (p *Pipeline) ScenarioSweepOptions() ScenarioSweepOptions {
	sopts := DefaultScenarioSweepOptions(p.job.Scenario)
	sopts.RunEnv = p.reduced()
	sopts.ScenarioSeed = parallel.SubSeed(p.Seed(), scenarioSeedStream)
	sopts.ROVSeed = parallel.SubSeed(p.Seed(), rovSeedStream)
	if p.job.ROV > 0 {
		sopts.Adoptions = ScenarioAdoptions(p.job.ROV)
	}
	return sopts
}

// ScenarioAdoptions selects the adoption ladder for a max fraction:
// the default ladder truncated at max, with max itself as the final
// point.
func ScenarioAdoptions(max float64) []float64 {
	return ladderTo(DefaultScenarioSweepOptions(faults.ScenarioHijack).Adoptions, max)
}

// SweepIntensities selects the fault-sweep points for a max intensity:
// the default ladder truncated at max, with max itself as the final
// point.
func SweepIntensities(max float64) []float64 {
	return ladderTo(DefaultFaultSweepOptions().Intensities, max)
}

func ladderTo(ladder []float64, max float64) []float64 {
	var out []float64
	for _, v := range ladder {
		if v < max {
			out = append(out, v)
		}
	}
	return append(out, max)
}
