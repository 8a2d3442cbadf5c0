package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/bgp"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// This file is the bridge between the pure search machinery in
// internal/optimize and a live measurement world: RunOptimizeContext builds
// one converged survey, snapshots the pristine fork point, and then
// evaluates every candidate configuration by rewinding that snapshot
// and pushing the candidate's traffic-engineering delta through the
// incremental path — the same warm-start discipline the resilience
// sweep uses, here amortized across an entire search.

// OptimizeOptions configures a policy-optimization run.
type OptimizeOptions struct {
	// Survey is the world configuration; the search optimizes the
	// measurement announcement of the SURF experiment on it.
	Survey SurveyOptions
	// Objective is the target spec (see optimize.ParseSpec):
	// "catchment:re=0.4" or "probe:re=0.5,commodity=0.3,loss=0.2".
	Objective string
	// Strategy selects the searcher: "hillclimb" or "evolve".
	Strategy string
	// Budget is the total candidate-evaluation budget (0 returns the
	// baseline configuration unevaluated).
	Budget int
	// Lambda is the generation width; 0 means the strategy default (4).
	Lambda int
	// Workers bounds concurrent candidate evaluations; <= 0 means
	// GOMAXPROCS. Results are byte-identical at any width.
	Workers int
	// SearchSeed keys every proposal RNG stream (the pipeline derives
	// it from the session seed via optimizeSeedStream).
	SearchSeed int64
	// Incremental selects the engine recomputation mode for every world
	// the run builds.
	Incremental bool
	// Cold disables warm-started evaluation: every candidate gets a
	// freshly built world and pays full initial convergence. Only
	// useful for measuring what the warm path saves
	// (TestOptimizeWarmStartSavings); searches should leave it false.
	Cold bool
	// Metrics receives the run's counters and spans; nil disables
	// telemetry. Evaluation-world engines are never instrumented —
	// engine counters would vary with evaluation scheduling — so
	// everything recorded here is identical at any Workers value.
	Metrics *telemetry.Registry
	// Progress, when non-nil, fires serially after every generation.
	Progress func(OptimizeProgress)
	// Checkpoint, when non-nil, fires serially after every generation
	// with the encoded search state (optimize.EncodeState) — durable
	// enough to resume the search bit-exactly.
	Checkpoint func(state []byte, p OptimizeProgress)
	// Resume, when non-nil, is a prior Checkpoint blob to continue
	// from; its fingerprint must match this run's configuration.
	Resume []byte
}

// OptimizeProgress is one generation's headline numbers, as handed to
// the Progress callback (and streamed by resurveyd).
type OptimizeProgress struct {
	Generation int     `json:"generation"`
	Evaluated  int     `json:"evaluated"`
	Budget     int     `json:"budget"`
	BestScore  float64 `json:"best_score"`
	BestConfig string  `json:"best_config"`
}

// OptimizeResult is a search run's complete output.
type OptimizeResult struct {
	Objective   string
	Strategy    string
	Budget      int
	Evaluated   int
	Generations int
	Restarts    int
	// Best is the winning candidate; BaselineScore is the pristine
	// configuration's score under the same objective, so improvement is
	// Best.Score - BaselineScore.
	Best          optimize.Scored
	BaselineScore float64
	BaselineEval  optimize.Eval
	BestEval      optimize.Eval
	Trajectory    []optimize.TrajectoryPoint
	// WarmRestores counts snapshot rewinds (one per warm evaluation,
	// plus the final rewind that returns the driver world to the
	// pristine fork point). ColdBuilds counts from-scratch worlds.
	WarmRestores int64
	ColdBuilds   int64
	// EvalDecisionRuns totals the BGP decision evaluations the
	// candidate evaluations cost (excluding the shared one-time
	// convergence on the warm path, including per-candidate initial
	// convergence on the cold path) — the warm-start savings metric.
	EvalDecisionRuns int64
	// SnapshotBytes is the pristine snapshot's size.
	SnapshotBytes int
	// State is the final encoded search state (resumable checkpoint).
	State []byte
}

// optimizeSeedStream derives the search seed from the session seed
// (see the Pipeline doc for the derivation map).
const optimizeSeedStream = 0x0071

// lpUndo records one import-localpref override so the evaluator can
// un-apply it before the next snapshot rewind (ImportLocalPref is part
// of the restore fingerprint — see TestSetImportLocalPrefFingerprint).
type lpUndo struct {
	id, nb bgp.RouterID
	pref   uint32
}

// optSlot is one reusable evaluation world.
type optSlot struct {
	s  *Survey
	lp []lpUndo
}

// policyEvaluator implements optimize.Evaluator against a pool of
// warm-startable worlds. Evaluations are pure per candidate (rewind →
// apply → converge → census), so any slot can serve any candidate and
// results are independent of scheduling.
type policyEvaluator struct {
	opts     OptimizeOptions
	obj      optimize.Objective
	baseSnap []byte
	start    bgp.Time
	pool     chan *optSlot
	reg      *telemetry.Registry

	warmRestores atomic.Int64
	coldBuilds   atomic.Int64
	decisionRuns atomic.Int64
}

// optStart is the virtual time of the optimizer's baseline
// convergence, matching RunBothContext's SURF experiment start.
const optStart = bgp.Time(9 * 3600)

func newPolicyEvaluator(opts OptimizeOptions, obj optimize.Objective, driver *Survey, baseSnap []byte, slots int) *policyEvaluator {
	ev := &policyEvaluator{
		opts:     opts,
		obj:      obj,
		baseSnap: baseSnap,
		start:    optStart,
		pool:     make(chan *optSlot, slots),
		reg:      opts.Metrics,
	}
	ev.pool <- ev.prepSlot(driver)
	for i := 1; i < slots; i++ {
		s := NewSurvey(opts.Survey)
		s.SetIncremental(opts.Incremental)
		ev.pool <- ev.prepSlot(s)
	}
	return ev
}

// prepSlot wires a survey world for evaluation probing: response
// terminal mapping as in Experiment.RunContext, no injected dormancy
// (evaluations measure steady state, not loss).
func (ev *policyEvaluator) prepSlot(s *Survey) *optSlot {
	s.Prober.Workers = 1
	s.World.RETerminals = map[bgp.RouterID]bool{s.Eco.MeasSURF.Router: true}
	s.World.CommodityTerminals = map[bgp.RouterID]bool{s.Eco.MeasCommodity.Router: true}
	return &optSlot{s: s}
}

func (ev *policyEvaluator) Evaluate(ctx context.Context, c optimize.Candidate) (optimize.Eval, error) {
	if err := ctx.Err(); err != nil {
		return optimize.Eval{}, err
	}
	if ev.opts.Cold {
		s := NewSurvey(ev.opts.Survey)
		s.SetIncremental(ev.opts.Incremental)
		slot := ev.prepSlot(s)
		ev.coldBuilds.Add(1)
		ev.reg.Counter("opt_cold_builds_total").Inc()
		st0 := slot.s.Eco.Net.Stats()
		// The cold path pays the full initial convergence inside the
		// metered window — exactly what the warm path amortizes away.
		x := NewSURFExperiment(slot.s.Eco, slot.s.World, slot.s.Prober, slot.s.Sel, ev.start)
		x.Converge()
		return ev.measure(slot, c, st0)
	}

	slot := <-ev.pool
	defer func() { ev.pool <- slot }()
	if err := ev.rewind(slot); err != nil {
		return optimize.Eval{}, err
	}
	ev.warmRestores.Add(1)
	ev.reg.Counter("opt_warm_restores_total").Inc()
	ev.reg.Counter("snapshot_restore_total").Inc()
	ev.reg.Counter("core_warm_start_skipped_convergence_runs_total").Inc()
	return ev.measure(slot, c, slot.s.Eco.Net.Stats())
}

// rewind returns a slot's world to the pristine fork point: un-apply
// any live localpref overrides (they are part of the restore
// fingerprint), then restore the snapshot (which rewinds all route
// state, prepends, and originations).
func (ev *policyEvaluator) rewind(slot *optSlot) error {
	net := slot.s.Eco.Net
	for _, u := range slot.lp {
		net.SetImportLocalPref(u.id, u.nb, u.pref)
	}
	slot.lp = slot.lp[:0]
	if err := bgp.RestoreNetwork(bytes.NewReader(ev.baseSnap), net); err != nil {
		return fmt.Errorf("optimize: rewind to pristine snapshot: %w", err)
	}
	return nil
}

// measure applies the candidate's configuration delta as one batch,
// lets the network converge, and takes the catchment census (plus a
// probe round when the objective needs one). st0 anchors the work
// metering: the returned Eval's DecisionRuns/FullScans cover exactly
// the delta this candidate cost.
func (ev *policyEvaluator) measure(slot *optSlot, c optimize.Candidate, st0 bgp.IncStats) (optimize.Eval, error) {
	s := slot.s
	net := s.Eco.Net
	eco := s.Eco
	meas := eco.MeasPrefix
	reOrigin := eco.MeasSURF.Router
	comOrigin := eco.MeasCommodity.Router
	reSessions := net.Speaker(reOrigin).Peers()
	comSessions := net.Speaker(comOrigin).Peers()

	net.Batch(func() {
		for _, nb := range reSessions {
			net.SetPrefixPrepend(reOrigin, nb, meas, int(c.Genes[optimize.GeneREPrepend]))
		}
		for _, nb := range comSessions {
			net.SetPrefixPrepend(comOrigin, nb, meas, int(c.Genes[optimize.GeneCommodityPrepend]))
		}
		if i := c.Genes[optimize.GeneRELocalPref]; i != 0 {
			pref := optimize.LocalPrefChoices[i]
			for _, nb := range reSessions {
				old := net.SetImportLocalPref(nb, reOrigin, pref)
				slot.lp = append(slot.lp, lpUndo{id: nb, nb: reOrigin, pref: old})
			}
		}
		if i := c.Genes[optimize.GeneCommodityLocalPref]; i != 0 {
			pref := optimize.LocalPrefChoices[i]
			for _, nb := range comSessions {
				old := net.SetImportLocalPref(nb, comOrigin, pref)
				slot.lp = append(slot.lp, lpUndo{id: nb, nb: comOrigin, pref: old})
			}
		}
		if c.Genes[optimize.GeneREAction] == 1 {
			// Re-originate with NO_EXPORT: the R&E announcement stops at
			// direct peers. Origination state rewinds with the snapshot.
			net.OriginateWith(reOrigin, meas, bgp.OriginateOpts{
				Communities: bgp.NewCommunitySet(bgp.NoExport),
			})
		}
	})
	// The schedule waits RoundGap between a change and its probe; the
	// census and probe happen at that round boundary, after the delta
	// has fully drained.
	probeAt := ev.start + 3600
	net.RunToQuiescence()
	if net.Now() < probeAt {
		net.AdvanceTo(probeAt)
	}

	var e optimize.Eval
	for _, info := range eco.ASes {
		if info.AS == eco.MeasSURF.AS || info.AS == eco.MeasCommodity.AS {
			continue
		}
		r := net.Speaker(info.Router).Best(meas)
		switch {
		case r == nil:
			e.UnreachableASes++
		case r.Path.Origin() == eco.MeasSURF.AS:
			e.REASes++
		default:
			e.CommodityASes++
		}
	}
	if ev.obj.NeedsProbe() {
		round := s.Prober.Run("opt", net.Now(), s.Sel)
		groups := make(map[string][]probe.Record, len(round.Records))
		order := make([]string, 0, len(round.Records))
		for _, rec := range round.Records {
			k := rec.Prefix.String()
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], rec)
		}
		for _, k := range order {
			switch ObserveRound(groups[k]) {
			case ObsRE:
				e.ProbeRE++
			case ObsCommodity:
				e.ProbeCommodity++
			case ObsMixed:
				e.ProbeMixed++
			default:
				e.ProbeLoss++
			}
		}
	}
	st1 := net.Stats()
	e.DecisionRuns = st1.DecisionRuns - st0.DecisionRuns
	e.FullScans = st1.FullScans - st0.FullScans
	ev.decisionRuns.Add(e.DecisionRuns)
	ev.reg.Counter("opt_eval_decision_runs_total").Add(e.DecisionRuns)
	ev.reg.Counter("opt_eval_full_scans_total").Add(int64(e.FullScans))
	return e, nil
}

// RunOptimizeContext builds one survey world, converges the baseline
// announcement, snapshots the pristine fork point, and searches the
// configuration space by warm-started evaluation. The driver world is
// returned to the pristine state afterwards. Output is byte-identical
// at any Workers value: proposals draw from per-ordinal RNG streams,
// evaluations merge in candidate order, and no evaluation world feeds
// the registry.
func RunOptimizeContext(ctx context.Context, opts OptimizeOptions) (*OptimizeResult, error) {
	obj, err := optimize.ParseSpec(opts.Objective)
	if err != nil {
		return nil, err
	}
	sr, err := optimize.NewSearcher(opts.Strategy)
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	span := reg.StartSpan("optimize:" + sr.Name())
	defer span.End()

	buildSpan := reg.StartSpan("optimize-converge")
	driver := NewSurvey(opts.Survey)
	driver.SetIncremental(opts.Incremental)
	x := NewSURFExperiment(driver.Eco, driver.World, driver.Prober, driver.Sel, optStart)
	x.Metrics = reg // Converge meters via Stats deltas — deterministic
	x.Converge()
	var snapBuf bytes.Buffer
	if err := driver.Eco.Net.Snapshot(&snapBuf); err != nil {
		return nil, fmt.Errorf("optimize: snapshot pristine state: %w", err)
	}
	baseSnap := snapBuf.Bytes()
	reg.Counter("snapshot_bytes").Add(int64(len(baseSnap)))
	buildSpan.End()

	runOpts := optimize.Options{
		Seed:    opts.SearchSeed,
		Budget:  opts.Budget,
		Lambda:  opts.Lambda,
		Workers: opts.Workers,
		Metrics: reg,
	}
	fp := optimize.FingerprintFor(obj, sr, runOpts)
	if opts.Resume != nil {
		ckFP, st, err := optimize.DecodeState(opts.Resume)
		if err != nil {
			return nil, fmt.Errorf("optimize: resume checkpoint: %w", err)
		}
		if ckFP != fp {
			return nil, fmt.Errorf("optimize: resume checkpoint is for a different search (%v, want %v)", ckFP, fp)
		}
		runOpts.Resume = st
	}

	slots := parallel.Workers(opts.Workers)
	if l := runOpts.Budget; l > 0 && slots > l {
		slots = l
	}
	if l := fp.Lambda; slots > l {
		slots = l
	}
	if slots < 1 {
		slots = 1
	}
	ev := newPolicyEvaluator(opts, obj, driver, baseSnap, slots)

	// Score the pristine configuration once, outside the budget, so the
	// report can state the improvement (and the savings test has a
	// guaranteed warm evaluation).
	baselineEval, err := ev.Evaluate(ctx, optimize.Baseline())
	if err != nil {
		return nil, err
	}

	if opts.Progress != nil || opts.Checkpoint != nil {
		runOpts.Progress = func(st *optimize.State, _ []optimize.Scored) {
			p := OptimizeProgress{
				Generation: st.Generation,
				Evaluated:  st.Evaluated,
				Budget:     opts.Budget,
				BestScore:  st.Best.Score,
				BestConfig: st.Best.Candidate.Label(),
			}
			if opts.Checkpoint != nil {
				opts.Checkpoint(optimize.EncodeState(fp, st), p)
			}
			if opts.Progress != nil {
				opts.Progress(p)
			}
		}
	}

	sres, err := optimize.Run(ctx, obj, sr, ev, runOpts)
	if err != nil {
		return nil, err
	}

	res := &OptimizeResult{
		Objective:     obj.Name(),
		Strategy:      sr.Name(),
		Budget:        opts.Budget,
		Evaluated:     sres.Evaluated,
		Generations:   sres.Generation,
		Restarts:      sres.Restarts,
		Best:          sres.Best,
		BaselineScore: obj.Score(baselineEval),
		BaselineEval:  baselineEval,
		Trajectory:    sres.Trajectory,
		SnapshotBytes: len(baseSnap),
		State:         optimize.EncodeState(fp, sres.State),
	}
	if !sres.BestSet {
		res.Best = optimize.Scored{Candidate: optimize.Baseline(), Score: res.BaselineScore}
	}
	// Re-evaluate the winner once to carry its census into the report
	// (the search keeps only scores).
	if bestEval, err := ev.Evaluate(ctx, res.Best.Candidate); err == nil {
		res.BestEval = bestEval
	} else {
		return nil, err
	}
	// Leave the driver world at the pristine fork point.
	if !opts.Cold {
		dslot := <-ev.pool
		if err := ev.rewind(dslot); err != nil {
			return nil, err
		}
		ev.pool <- dslot
		ev.warmRestores.Add(1)
		reg.Counter("snapshot_restore_total").Inc()
	}
	res.WarmRestores = ev.warmRestores.Load()
	res.ColdBuilds = ev.coldBuilds.Load()
	res.EvalDecisionRuns = ev.decisionRuns.Load()
	reg.Gauge("opt_warm_restore_reuse").Set(float64(res.WarmRestores))
	return res, nil
}

// WriteText renders the search outcome: the score-vs-budget trajectory
// table and the headline summary. Output is fully deterministic (no
// timings, no addresses).
func (res *OptimizeResult) WriteText(w io.Writer) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Optimization trajectory (%s, %s)", res.Objective, res.Strategy),
		Headers: []string{"Generation", "Evaluated", "Best score", "Best config"},
	}
	for _, p := range res.Trajectory {
		t.AddRow(fmt.Sprint(p.Generation), fmt.Sprint(p.Evaluated),
			fmt.Sprintf("%.6f", p.BestScore), p.BestLabel)
	}
	if _, err := io.WriteString(w, t.String()); err != nil {
		return err
	}
	census := func(e optimize.Eval) string {
		return fmt.Sprintf("re=%d commodity=%d unreachable=%d", e.REASes, e.CommodityASes, e.UnreachableASes)
	}
	lines := fmt.Sprintf(
		"\nBaseline: score %.6f (%s) [%s]\nBest:     score %.6f (%s) [%s]\n"+
			"Improvement: %+.6f over %d candidates in %d generations (%d restarts)\n"+
			"Evaluation: %d warm restores, %d cold builds, %d decision runs, snapshot %d bytes\n",
		res.BaselineScore, optimize.Baseline().Label(), census(res.BaselineEval),
		res.Best.Score, res.Best.Candidate.Label(), census(res.BestEval),
		res.Best.Score-res.BaselineScore, res.Evaluated, res.Generations, res.Restarts,
		res.WarmRestores, res.ColdBuilds, res.EvalDecisionRuns, res.SnapshotBytes)
	_, err := io.WriteString(w, lines)
	return err
}
