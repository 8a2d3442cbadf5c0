package core

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/netutil"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// This file caps the fault-injection subsystem: a fault-intensity
// sweep that rebuilds the world at each point, injects a seeded
// schedule of session faults, brownouts, and collector gaps, runs the
// Internet2-style experiment through the resilient pipeline, and
// scores the inferences against the generator's installed policies —
// the exact ground truth the paper could only approximate with
// operator email (§4.1.2). It quantifies how much fault intensity
// Table 1's shape tolerates.

// FaultSweepOptions configures RunFaultSweepContext.
type FaultSweepOptions struct {
	// Survey is the world configuration rebuilt fresh at every
	// intensity point, so points are independent and each is exactly
	// reproducible.
	Survey SurveyOptions
	// Intensities are the sweep points, typically starting at 0 (the
	// strict baseline pipeline, bit-for-bit).
	Intensities []float64
	// FaultSeed drives schedule generation at every point.
	FaultSeed int64
	// Quorum is the evidence quorum applied at nonzero intensity
	// (rounds that must respond before a prefix is classified).
	Quorum int
	// Retry is the prober retry policy applied at nonzero intensity.
	Retry probe.RetryPolicy
	// Incremental selects the BGP engine's recomputation mode for every
	// point's world (observable output is identical either way).
	Incremental bool
	// WarmStart, when true, converges the experiment once on a base
	// world, snapshots the engine (bgp.Network.Snapshot), and restores
	// that snapshot into every intensity point's freshly built world
	// instead of repeating the initial convergence per point. Sweep
	// output is byte-identical either way (fault schedules only act
	// inside the measured window); only the work accounting differs —
	// see snapshot_restore_total and
	// core_warm_start_skipped_convergence_runs_total.
	WarmStart bool
	// Metrics, when non-nil, instruments every sweep point's world and
	// records per-intensity score gauges (faultsweep_accuracy,
	// faultsweep_mean_confidence, faultsweep_outage_classes).
	Metrics *telemetry.Registry
	// Workers bounds how many intensity points run concurrently (one
	// intensity per worker); <= 0 means GOMAXPROCS. Each point rebuilds
	// its own world and records into its own sub-registry, merged back
	// in intensity order, so sweep output is identical for any value.
	Workers int
}

// DefaultFaultSweepOptions sweeps six intensity points over the small
// topology with the resilience layer at its default settings.
func DefaultFaultSweepOptions() FaultSweepOptions {
	return FaultSweepOptions{
		Survey:      SmallSurveyOptions(),
		Intensities: []float64{0, 0.1, 0.25, 0.5, 0.75, 1},
		FaultSeed:   1789,
		Quorum:      6,
		Retry:       probe.DefaultRetryPolicy(),
		Incremental: true,
		WarmStart:   true,
	}
}

// FaultSweepPoint is one intensity point's outcome.
type FaultSweepPoint struct {
	Intensity float64
	// Schedule fault volumes, for the report.
	SessionFaults int
	Brownouts     int
	FeedGaps      int

	Result  *Result
	Summary *SurveySummary
	// OutageClasses counts prefixes labeled Switch-to-commodity or
	// Oscillating — the Table 1 rows the paper attributes to outages,
	// and the first part of the table's shape to move as session
	// faults rise.
	OutageClasses int
	// Validation scores the characterized prefixes against generator
	// ground truth; Accuracy is its correct/(correct+wrong) headline.
	Validation *Validation
	Accuracy   float64
	// MeanConfidence averages PrefixResult.Confidence over
	// characterized (non-unresponsive, non-insufficient) prefixes.
	MeanConfidence float64
}

// RunFaultSweepContext measures inference quality as fault intensity
// rises. At intensity 0 the entire fault and resilience subsystem is
// disabled — no schedule, no retry, quorum 0 — so the first point
// reproduces the baseline pipeline bit-for-bit. At nonzero intensity
// the injector drives the schedule through the experiment while the
// retry policy and evidence quorum defend the classification.
//
// Points are independent (each rebuilds its own world) and run one
// per worker. To keep telemetry merge-order independent, each point
// records into a private sub-registry; the sub-registries are merged
// into opts.Metrics in intensity order after all points finish, so the
// final registry — and any manifest snapshot of it — is identical for
// any Workers value. Within a point, probing and classification run
// single-worker: the sweep's parallelism budget is spent across
// points.
//
// The context is checked before each intensity point starts and
// between the experiment rounds inside a point, so a cancelled or
// deadline-expired context stops the sweep within one round and
// returns the context's error with nil points. Sweep points are
// independent worlds, so there is no partial state to unwind.
func RunFaultSweepContext(ctx context.Context, opts FaultSweepOptions) ([]FaultSweepPoint, error) {
	if len(opts.Intensities) == 0 {
		opts.Intensities = DefaultFaultSweepOptions().Intensities
	}
	// Warm start: converge once on a base world and share the resulting
	// engine state with every point. The base's telemetry (including the
	// one initial-convergence accounting) merges first, before any
	// point, so the merged registry stays independent of Workers.
	var baseSnap []byte
	if opts.WarmStart {
		var baseReg *telemetry.Registry
		if opts.Metrics != nil {
			baseReg = telemetry.New()
		}
		sp := baseReg.StartSpan("faultsweep:base")
		s := NewSurvey(opts.Survey)
		s.SetIncremental(opts.Incremental)
		s.SetMetrics(baseReg)
		s.Workers = 1
		s.Prober.Workers = 1
		x := NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, bgp.Time(9*3600))
		x.Metrics = baseReg
		x.Workers = 1
		x.Converge()
		var buf bytes.Buffer
		if err := s.Eco.Net.Snapshot(&buf); err == nil {
			baseSnap = buf.Bytes()
			baseReg.Counter("snapshot_bytes").Add(int64(len(baseSnap)))
		}
		sp.End()
		opts.Metrics.Merge(baseReg)
	}
	return sweepPoints(ctx, len(opts.Intensities), opts.Workers, "faultsweep", opts.Metrics,
		func(i int, reg *telemetry.Registry) FaultSweepPoint {
			return runFaultPoint(ctx, opts, opts.Intensities[i], baseSnap, reg)
		})
}

// sweepPoints runs n independent sweep points, one per worker. Each
// point records into a private sub-registry; the sub-registries merge
// into metrics in point order once all points finish, so the merged
// registry is identical for any worker count. A cancelled ctx skips
// the remaining points and returns its error with nil points.
func sweepPoints[P any](ctx context.Context, n, workers int, phase string, metrics *telemetry.Registry,
	run func(i int, reg *telemetry.Registry) P) ([]P, error) {
	type pointOut struct {
		pt  P
		reg *telemetry.Registry
	}
	outs, timings := parallel.CollectTimed(n, 1, workers, func(s parallel.Shard) pointOut {
		if ctx.Err() != nil {
			return pointOut{}
		}
		var reg *telemetry.Registry
		if metrics != nil {
			reg = telemetry.New()
		}
		return pointOut{pt: run(s.Lo, reg), reg: reg}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	points := make([]P, 0, len(outs))
	for _, o := range outs {
		metrics.Merge(o.reg)
		points = append(points, o.pt)
	}
	for _, t := range timings {
		metrics.AddShardTiming(phase, t.Shard, t.Items, t.Duration)
	}
	return points, nil
}

// runFaultPoint executes one intensity point against its own freshly
// built world, recording telemetry into reg (a private sub-registry
// when the sweep is instrumented, nil otherwise).
func runFaultPoint(ctx context.Context, opts FaultSweepOptions, intensity float64, baseSnap []byte, reg *telemetry.Registry) FaultSweepPoint {
	lbl := fmt.Sprintf("%.2f", intensity)
	sp := reg.StartSpan("faultsweep:intensity=" + lbl)
	defer sp.End()
	s := NewSurvey(opts.Survey)
	s.SetIncremental(opts.Incremental)
	s.SetMetrics(reg)
	s.Workers = 1
	s.Prober.Workers = 1
	start := bgp.Time(9 * 3600)
	x := NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, start)
	x.Metrics = reg
	x.Workers = 1
	if len(baseSnap) > 0 {
		// Identically built world, so the snapshot's static fingerprint
		// matches; a failed restore (impossible short of a bug) falls
		// back to the cold path.
		if err := bgp.RestoreNetwork(bytes.NewReader(baseSnap), s.Eco.Net); err == nil {
			x.MarkConverged()
			reg.Counter("snapshot_restore_total").Inc()
			reg.Counter("core_warm_start_skipped_convergence_runs_total").Inc()
		}
	}

	pt := FaultSweepPoint{Intensity: intensity}
	if intensity > 0 {
		window := faults.Window{
			Start: start,
			End:   start + bgp.Time(len(Schedule())+1)*x.Cfg.RoundGap,
		}
		sched := faults.Generate(s.Eco, window, faults.Config{Seed: opts.FaultSeed, Intensity: intensity})
		pt.SessionFaults = len(sched.Sessions)
		pt.Brownouts = len(sched.Brownouts)
		pt.FeedGaps = len(sched.FeedGaps)

		inj := faults.NewInjector(sched)
		inj.SetMetrics(reg)
		inj.Install(s.World, s.Eco.Net)
		x.Cfg.Advance = inj.Advance
		x.Cfg.Quorum = opts.Quorum
		s.Prober.Retry = opts.Retry
		pt.Result, _ = x.RunContext(ctx)
		if pt.Result == nil {
			return pt // cancelled mid-point; the sweep discards it
		}
		inj.Finish(s.Eco.Net)
		inj.Uninstall(s.World, s.Eco.Net)
	} else {
		pt.Result, _ = x.RunContext(ctx)
		if pt.Result == nil {
			return pt
		}
	}

	pt.Summary = Summarize(s.Eco, pt.Result)
	pt.Validation = Validate(s.Eco, pt.Result)
	pt.Accuracy = pt.Validation.Accuracy()
	pt.OutageClasses = pt.Summary.PrefixCount[InfSwitchToCommodity] + pt.Summary.PrefixCount[InfOscillating]

	// Sum in canonical prefix order: map iteration order would make
	// the float total differ in the last ulp between identical runs.
	prefixes := make([]netutil.Prefix, 0, len(pt.Result.PerPrefix))
	for p := range pt.Result.PerPrefix {
		prefixes = append(prefixes, p)
	}
	netutil.SortPrefixes(prefixes)
	characterized, confSum := 0, 0.0
	for _, p := range prefixes {
		pr := pt.Result.PerPrefix[p]
		if pr.Inference == InfUnresponsive || pr.Inference == InfInsufficientData {
			continue
		}
		characterized++
		confSum += pr.Confidence
	}
	if characterized > 0 {
		pt.MeanConfidence = confSum / float64(characterized)
	}
	reg.Gauge(telemetry.Label("faultsweep_accuracy", "intensity", lbl)).Set(pt.Accuracy)
	reg.Gauge(telemetry.Label("faultsweep_mean_confidence", "intensity", lbl)).Set(pt.MeanConfidence)
	reg.Gauge(telemetry.Label("faultsweep_outage_classes", "intensity", lbl)).Set(float64(pt.OutageClasses))
	return pt
}

// FaultSweepTable renders the accuracy-vs-intensity report.
func FaultSweepTable(points []FaultSweepPoint) *report.Table {
	t := &report.Table{
		Title: "Fault sweep: inference quality vs fault intensity",
		Headers: []string{"Intensity", "Faults (sess/brown/gap)", "Characterized",
			"Outage classes", "Insufficient", "Unresponsive", "Accuracy", "Mean conf"},
	}
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%.2f", pt.Intensity),
			fmt.Sprintf("%d/%d/%d", pt.SessionFaults, pt.Brownouts, pt.FeedGaps),
			itoa(pt.Summary.TotalPrefixes),
			itoa(pt.OutageClasses),
			itoa(pt.Summary.InsufficientData),
			itoa(pt.Summary.Unresponsive),
			fmt.Sprintf("%.1f%%", 100*pt.Accuracy),
			fmt.Sprintf("%.2f", pt.MeanConfidence),
		)
	}
	return t
}
