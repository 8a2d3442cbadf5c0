package core

import (
	"context"
	"math/rand"

	"repro/internal/bgp"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/seeds"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// Survey is the full study: one world, one seed selection, and both
// experiments run a week apart with the same probe seeds (§3.2).
type Survey struct {
	Eco    *topo.Ecosystem
	World  *simnet.World
	Sel    *seeds.Selection
	Prober *probe.Prober
	// Opts are the options the survey was built with; RunBoth reads
	// OutageSeed from here.
	Opts SurveyOptions
	// Metrics, when set via SetMetrics, instruments the network, the
	// prober, and both experiments. Nil (the default) disables
	// telemetry at zero cost.
	Metrics *telemetry.Registry
	// Workers bounds the shard workers for probing and classification
	// in both experiments; <= 0 means GOMAXPROCS. Survey output is
	// identical for any value.
	Workers int
	// Checkpoint, when non-nil, fires after every configuration round
	// of either experiment with the survey-level progress; callers
	// persist it (adding a bgp.Network.Snapshot and, when instrumented,
	// telemetry.Registry.SaveState) to make the run resumable.
	Checkpoint func(ck *Checkpoint)
	// Resume, when non-nil, makes RunBoth continue a checkpointed run
	// instead of starting cold. The survey's network must already hold
	// the checkpointed engine state (bgp.RestoreNetwork) and its
	// registry the checkpointed telemetry state.
	Resume *Checkpoint
	// Progress, when non-nil, fires after every configuration round of
	// either experiment (phase 0 = SURF, 1 = Internet2) — the hook
	// streaming front ends (resurveyd's SSE feed) subscribe to. Pure
	// observer; survey output does not depend on it.
	Progress func(phase int, ev RoundProgress)

	SURF      *Result
	Internet2 *Result
}

// SetMetrics wires the whole survey — BGP engine, prober, and the
// experiments RunBoth creates — to one registry. Call it before
// RunBoth; a nil registry disables instrumentation.
//
// Deprecated: construct through NewPipeline with WithMetrics, the
// single wiring path for surveys; SetMetrics remains as the mechanism
// the pipeline options delegate to.
func (s *Survey) SetMetrics(r *telemetry.Registry) {
	s.Metrics = r
	s.Eco.Net.SetMetrics(r)
	s.Prober.SetMetrics(r)
}

// SetIncremental switches the survey's BGP engine between full
// reconvergence and incremental recomputation (see bgp.SetIncremental;
// both modes produce identical observable output). The pipeline
// threads WithIncremental here; bare NewSurvey callers keep the full
// reference path unless they opt in.
func (s *Survey) SetIncremental(on bool) { s.Eco.Net.SetIncremental(on) }

// SurveyOptions bundles the generator knobs.
type SurveyOptions struct {
	Topology topo.GenConfig
	World    simnet.WorldConfig
	Catalog  seeds.CatalogConfig
	// TargetsPerPrefix is the responsive-address goal (§3.2: three).
	TargetsPerPrefix int
	// OutageSeed controls how the injected mid-experiment outages are
	// divided between the SURF and Internet2 runs: 0 keeps the
	// historical in-order halves split; any other value shuffles the
	// list deterministically before splitting (see SplitOutages).
	OutageSeed int64
}

// DefaultSurveyOptions returns the paper-scale configuration.
func DefaultSurveyOptions() SurveyOptions {
	return SurveyOptions{
		Topology:         topo.DefaultConfig(),
		World:            simnet.DefaultWorldConfig(),
		Catalog:          seeds.DefaultCatalogConfig(),
		TargetsPerPrefix: 3,
	}
}

// SmallSurveyOptions returns a test-scale configuration.
func SmallSurveyOptions() SurveyOptions {
	o := DefaultSurveyOptions()
	o.Topology = topo.SmallConfig()
	return o
}

// NewSurvey builds the world and selects probe seeds.
func NewSurvey(opts SurveyOptions) *Survey {
	eco := topo.Build(opts.Topology)
	world := simnet.BuildWorld(eco, opts.World)
	cat := seeds.BuildCatalog(eco, world, opts.Catalog)

	// Target list: §3.2 excludes prefixes entirely covered by others
	// and the measurement prefix. The generator allocates disjoint
	// prefixes, so coverage exclusion is a near no-op here, but the
	// step is kept for fidelity with real announcement dumps.
	list := make([]netutil.Prefix, 0, len(eco.Prefixes))
	for _, pi := range eco.Prefixes {
		if pi.Prefix == eco.MeasPrefix {
			continue
		}
		list = append(list, pi.Prefix)
	}
	list = netutil.ExcludeCovered(list)
	sel := seeds.Select(cat, list, func(addr uint32, proto simnet.Proto) bool {
		return world.Responsive(addr, proto, 0)
	}, opts.TargetsPerPrefix)

	return &Survey{
		Eco:    eco,
		World:  world,
		Sel:    sel,
		Prober: probe.NewProber(world),
		Opts:   opts,
	}
}

// SplitOutages deterministically divides an outage list between the
// two experiments. Seed 0 preserves the historical behaviour — the
// first half (rounded down) goes to the first experiment, the rest to
// the second — while any nonzero seed applies a deterministic shuffle
// before the same split, so reruns with the same seed reproduce the
// same assignment.
//
// The seed arrives via SurveyOptions.OutageSeed, threaded from
// NewPipeline's WithOutageSplit option; callers should not invent
// ad-hoc seeds here. New derived streams should instead follow the
// parallel.SubSeed(sessionSeed, stream) convention documented in
// package parallel.
func SplitOutages(outages []Outage, seed int64) (first, second []Outage) {
	n := len(outages)
	if n == 0 {
		return nil, nil
	}
	split := append([]Outage(nil), outages...)
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed)) // #nosec deterministic split
		rng.Shuffle(n, func(i, j int) { split[i], split[j] = split[j], split[i] })
	}
	return split[:n/2], split[n/2:]
}

// RunBoth executes the SURF experiment, tears down its R&E
// origination, then runs the Internet2 experiment a (virtual) week
// later, mirroring §3.1's 30 May and 5 June runs. A few member R&E
// sessions fail mid-experiment, as happened during the real runs.
func (s *Survey) RunBoth() {
	// The background context never cancels, so the error path is dead.
	_ = s.RunBothContext(context.Background())
}

// RunBothContext is RunBoth with cooperative cancellation threaded
// into both experiments (see Experiment.RunContext): a cancelled or
// deadline-expired context stops between configuration rounds and
// returns the context's error, leaving SURF/Internet2 nil for
// whatever had not completed. A checkpointed run cancelled mid-flight
// resumes from its last durable round.
func (s *Survey) RunBothContext(ctx context.Context) error {
	surfOutages, i2Outages := SplitOutages(s.pickOutages(), s.Opts.OutageSeed)
	s.Prober.Workers = s.Workers
	surfStart := bgp.Time(9 * 3600)
	if s.Resume == nil || s.Resume.Phase == 0 {
		x1 := NewSURFExperiment(s.Eco, s.World, s.Prober, s.Sel, surfStart)
		x1.Cfg.Outages = surfOutages
		x1.Metrics = s.Metrics
		x1.Workers = s.Workers
		x1.Checkpoint = s.checkpointHook(0, surfStart)
		x1.Progress = s.progressHook(0)
		if s.Resume != nil {
			x1.Resume = s.Resume
		}
		res, err := x1.RunContext(ctx)
		if err != nil {
			return err
		}
		s.SURF = res
		x1.TeardownRE()
	} else {
		s.SURF = s.Resume.SURF
	}

	var i2Start bgp.Time
	if s.Resume != nil && s.Resume.Phase == 1 {
		i2Start = s.Resume.Start
	} else {
		i2Start = s.Eco.Net.Now() + 7*24*3600
	}
	x2 := NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, i2Start)
	x2.Cfg.Outages = i2Outages
	x2.Metrics = s.Metrics
	x2.Workers = s.Workers
	x2.Checkpoint = s.checkpointHook(1, i2Start)
	x2.Progress = s.progressHook(1)
	if s.Resume != nil && s.Resume.Phase == 1 {
		x2.Resume = s.Resume
	}
	res, err := x2.RunContext(ctx)
	if err != nil {
		return err
	}
	s.Internet2 = res
	return nil
}

// progressHook adapts the survey-level Progress callback to one
// experiment's hook (nil when no subscriber is installed).
func (s *Survey) progressHook(phase int) func(RoundProgress) {
	if s.Progress == nil {
		return nil
	}
	return func(ev RoundProgress) { s.Progress(phase, ev) }
}

// checkpointHook adapts the survey-level Checkpoint callback to one
// experiment's hook; it returns nil (disabling per-round checkpoints)
// when the survey has no callback installed.
func (s *Survey) checkpointHook(phase int, start bgp.Time) func(int, int, *Result) {
	if s.Checkpoint == nil {
		return nil
	}
	return func(done, churnStart int, res *Result) {
		ck := &Checkpoint{
			Phase:      phase,
			Done:       done,
			ChurnStart: churnStart,
			Start:      start,
			Rounds:     res.Rounds,
			Origins:    res.CollectorOrigins,
		}
		if phase == 1 {
			ck.SURF = s.SURF
		}
		s.Checkpoint(ck)
	}
}

// pickOutages selects a handful of responsive R&E-preferring members
// whose R&E session fails mid-experiment: half lose it for the rest of
// the run (Switch to commodity), half recover it (Oscillating).
func (s *Survey) pickOutages() []Outage {
	const wanted = 4
	var out []Outage
	for _, info := range s.Eco.ASes {
		if len(out) == wanted {
			break
		}
		if info.Class != topo.ClassMember || info.Policy != topo.PolicyPreferRE ||
			len(info.CommodityProviders) == 0 || info.HiddenCommodity || info.VRFSplit {
			continue
		}
		responsive := false
		for _, p := range info.Prefixes {
			if _, ok := s.Sel.Targets[p]; ok {
				responsive = true
				break
			}
		}
		if !responsive {
			continue
		}
		re := s.Eco.AS(info.REProviders[0])
		o := Outage{A: re.Router, B: info.Router}
		if len(out)%2 == 0 {
			o.DownRound, o.UpRound = 6, -1 // revert to commodity for the rest
		} else {
			o.DownRound, o.UpRound = 2, 4 // brief outage: oscillating
		}
		out = append(out, o)
	}
	return out
}
