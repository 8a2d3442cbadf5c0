package core

import (
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Pipeline is the single construction path for surveys, experiments,
// and fault sweeps. Commands configure one with functional options and
// then ask it for fully wired components:
//
//	p := core.NewPipeline(core.WithSmall(), core.WithSeed(1),
//	        core.WithWorkers(4), core.WithMetrics(reg))
//	s := p.NewSurvey()
//	s.RunBoth()
//
// It replaces the previous convention of constructing a Survey and
// then calling scattered SetMetrics setters on Survey, Prober, and
// Network — the options wire everything once, identically across
// binaries.
//
// Seed derivation: the pipeline holds ONE session seed. Everything
// else derives from it deterministically — the topology generator uses
// it directly, the world's probe-loss streams use cfg.Seed+1 split
// per (round, prefix) via parallel.SubSeed (see simnet.LossStream),
// and the fault sweep's schedule seed is
// parallel.SubSeed(seed, faultSeedStream). Bare seed parameters that
// predate the pipeline (SplitOutages, simnet.World.InjectDormancy)
// keep their own documented conventions but are fed from options
// threaded through here rather than ad-hoc constants.
type Pipeline struct {
	survey        SurveyOptions
	surveySet     bool
	small         bool
	scale         topo.Scale
	scaleSet      bool
	seed          int64
	seedSet       bool
	outageSeed    int64
	outageSeedSet bool
	workers       int
	faults        float64
	scenario      string
	rov           float64
	objective     string
	budget        int
	strategy      string
	metrics       *telemetry.Registry
	incremental   bool
}

// PipelineOption configures a Pipeline; options are applied by
// NewPipeline and are order-independent (each sets an independent
// field; derived values resolve after all options run).
type PipelineOption func(*Pipeline)

// WithSurvey uses an explicit survey configuration instead of the
// scale defaults. It overrides WithSmall; WithSeed still overrides the
// topology seed inside it.
func WithSurvey(opts SurveyOptions) PipelineOption {
	return func(p *Pipeline) { p.survey, p.surveySet = opts, true }
}

// WithSmall selects the reduced test-scale ecosystem
// (SmallSurveyOptions) instead of the paper-scale default.
func WithSmall() PipelineOption {
	return func(p *Pipeline) { p.small = true }
}

// WithScale selects the topology size tier (small, paper, internet —
// see topo.Scale) for everything the pipeline builds. It overrides
// WithSmall; WithSurvey still overrides both. The internet tier builds
// on the compact arena-backed RIB layout, without which its ~80K-AS /
// ~1M-prefix tables would not fit in memory.
func WithScale(s topo.Scale) PipelineOption {
	return func(p *Pipeline) { p.scale, p.scaleSet = s, true }
}

// WithSeed sets the session seed every stochastic component derives
// from (see the Pipeline doc for the derivation map).
func WithSeed(seed int64) PipelineOption {
	return func(p *Pipeline) { p.seed, p.seedSet = seed, true }
}

// WithWorkers bounds the shard workers of every parallel loop the
// pipeline drives (probing, classification, fault-sweep points);
// n <= 0 means GOMAXPROCS. Output is identical for any value.
func WithWorkers(n int) PipelineOption {
	return func(p *Pipeline) { p.workers = n }
}

// WithFaults enables the fault-intensity sweep up to the given max
// intensity in (0, 1]; 0 disables it. Validation happens at the flag
// layer (cliconf) — the pipeline assumes a sane value.
func WithFaults(intensity float64) PipelineOption {
	return func(p *Pipeline) { p.faults = intensity }
}

// WithScenario selects an adversarial scenario family (hijack, leak —
// see faults.ScenarioNames) for the pipeline's scenario sweep; empty
// disables it. Validation happens at the flag layer (cliconf).
func WithScenario(name string) PipelineOption {
	return func(p *Pipeline) { p.scenario = name }
}

// WithROV sets the RPKI route-origin-validation adoption fraction in
// [0, 1]. For plain runs and workloads a positive fraction deploys
// drop-invalid import filtering on that (seeded, nested) fraction of
// ASes before anything else happens; for scenario sweeps it caps the
// adoption ladder (0 keeps the full default ladder).
func WithROV(frac float64) PipelineOption {
	return func(p *Pipeline) { p.rov = frac }
}

// WithObjective selects the policy-optimization target (see
// optimize.ParseSpec — "catchment:re=0.4" or
// "probe:re=0.5,commodity=0.3,loss=0.2"); empty disables optimization.
// Validation happens at the flag layer (cliconf).
func WithObjective(spec string) PipelineOption {
	return func(p *Pipeline) { p.objective = spec }
}

// WithBudget sets the optimizer's candidate-evaluation budget.
func WithBudget(n int) PipelineOption {
	return func(p *Pipeline) { p.budget = n }
}

// WithStrategy selects the optimizer's search strategy ("hillclimb" or
// "evolve"); empty means hillclimb. Validation happens at the flag
// layer (cliconf).
func WithStrategy(name string) PipelineOption {
	return func(p *Pipeline) { p.strategy = name }
}

// WithMetrics instruments everything the pipeline constructs with the
// registry (nil keeps telemetry disabled at zero cost) and records the
// resolved worker count for the run manifest.
func WithMetrics(reg *telemetry.Registry) PipelineOption {
	return func(p *Pipeline) { p.metrics = reg }
}

// WithIncremental selects the BGP engine's recomputation mode for
// everything the pipeline builds: true (the default) propagates only
// route deltas through a dirty-set work queue, false keeps the full
// reconvergence path as the reference implementation. Both modes
// produce identical observable output (TestIncrementalEquivalenceMatrix
// proves it); only the work-accounting telemetry differs.
func WithIncremental(on bool) PipelineOption {
	return func(p *Pipeline) { p.incremental = on }
}

// WithOutageSplit sets how injected mid-experiment outages divide
// between the two experiments: 0 keeps the historical in-order halves
// split, any other value shuffles deterministically first (see
// SplitOutages).
func WithOutageSplit(seed int64) PipelineOption {
	return func(p *Pipeline) { p.outageSeed, p.outageSeedSet = seed, true }
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

// NewPipeline resolves the options into a ready pipeline.
func NewPipeline(opts ...PipelineOption) *Pipeline {
	p := &Pipeline{survey: DefaultSurveyOptions(), incremental: true}
	for _, o := range opts {
		o(p)
	}
	switch {
	case p.surveySet:
	case p.scaleSet:
		p.survey.Topology = p.scale.Config()
	case p.small:
		p.survey = SmallSurveyOptions()
	}
	if p.seedSet {
		p.survey.Topology.Seed = p.seed
	}
	if p.outageSeedSet {
		p.survey.OutageSeed = p.outageSeed
	}
	return p
}

// Seed returns the resolved session (topology) seed.
func (p *Pipeline) Seed() int64 { return p.survey.Topology.Seed }

// Incremental reports whether pipelines built here use the
// incremental recomputation path.
func (p *Pipeline) Incremental() bool { return p.incremental }

// SurveyOptions returns the resolved survey configuration.
func (p *Pipeline) SurveyOptions() SurveyOptions { return p.survey }

// NewSurvey builds a fully wired survey: world, seed selection,
// prober, metrics, and worker bounds, all from the pipeline options.
func (p *Pipeline) NewSurvey() *Survey {
	s := NewSurvey(p.survey)
	s.SetIncremental(p.incremental)
	s.Workers = p.workers
	s.Prober.Workers = p.workers
	if p.metrics != nil {
		s.SetMetrics(p.metrics)
		p.metrics.SetWorkers(parallel.Workers(p.workers))
	}
	return s
}

// FaultSweepOptions returns the sweep configuration the pipeline
// implies: reduced-scale worlds carrying the session topology seed, a
// schedule seed derived via parallel.SubSeed(seed, faultSeedStream),
// the intensity ladder up to WithFaults' max, and the pipeline's
// worker bound and registry.
func (p *Pipeline) FaultSweepOptions() FaultSweepOptions {
	fopts := DefaultFaultSweepOptions()
	fopts.Survey.Topology.Seed = p.Seed()
	fopts.FaultSeed = parallel.SubSeed(p.Seed(), faultSeedStream)
	if p.faults > 0 {
		fopts.Intensities = SweepIntensities(p.faults)
	}
	fopts.Incremental = p.incremental
	fopts.Metrics = p.metrics
	fopts.Workers = p.workers
	return fopts
}

// OptimizeOptions returns the policy-optimization configuration the
// pipeline implies: the session survey, the search seed derived via
// parallel.SubSeed(seed, optimizeSeedStream), and the pipeline's
// objective, budget, strategy (hillclimb when unset), worker bound,
// engine mode, and registry.
func (p *Pipeline) OptimizeOptions() OptimizeOptions {
	strategy := p.strategy
	if strategy == "" {
		strategy = "hillclimb"
	}
	return OptimizeOptions{
		Survey:      p.survey,
		Objective:   p.objective,
		Strategy:    strategy,
		Budget:      p.budget,
		Workers:     p.workers,
		SearchSeed:  parallel.SubSeed(p.Seed(), optimizeSeedStream),
		Incremental: p.incremental,
		Metrics:     p.metrics,
	}
}

// ScenarioSweepOptions returns the scenario-sweep configuration the
// pipeline implies: the session topology seed, schedule and
// deployment seeds derived via parallel.SubSeed, the adoption ladder
// capped at WithROV's fraction (0 = the full default ladder), and the
// pipeline's worker bound and registry.
func (p *Pipeline) ScenarioSweepOptions() ScenarioSweepOptions {
	sopts := DefaultScenarioSweepOptions(p.scenario)
	sopts.Survey.Topology.Seed = p.Seed()
	sopts.ScenarioSeed = parallel.SubSeed(p.Seed(), scenarioSeedStream)
	sopts.ROVSeed = parallel.SubSeed(p.Seed(), rovSeedStream)
	if p.rov > 0 {
		sopts.Adoptions = ScenarioAdoptions(p.rov)
	}
	sopts.Incremental = p.incremental
	sopts.Metrics = p.metrics
	sopts.Workers = p.workers
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
