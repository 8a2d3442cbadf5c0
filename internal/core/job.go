package core

// One job path. Every run mode — the two-experiment survey, the fault
// sweep, a virtual-clock workload, an adversarial scenario sweep, and a
// policy-optimization search — is a Job method (RunSurvey, RunSweep,
// RunWorkload, RunScenario, RunOptimize) with one signature: ctx, a
// telemetry registry, and a checkpoint directory (used by the two
// resumable kinds, ignored by the rest) in; the kind's typed result
// out. Checkpointing, resume, and cancellation therefore exist once.
// The CLIs call the method of the mode their flags select and render
// the typed result; resurveyd's dispatcher looks the submitted kind up
// in the registry below and renders whatever it returns as its JSON
// output document.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/optimize"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Job is one run of a registered kind: what to run, plus where its
// side channels go. The zero side channels run it silently.
type Job struct {
	// Kind names a registered kind (see JobKinds) for Check and Run.
	Kind    string
	Options JobOptions
	// Seeds is the CLI's -seeds count (0 means 1). A survey records it
	// in its checkpoint fingerprint and, above one at small scale,
	// captures the pristine post-build snapshot the multi-seed rerun
	// rewinds to.
	Seeds int
	// Trace is the MRT update stream a replay workload reads.
	Trace io.Reader
	// Out receives the run's headline lines (the CLI's stdout); nil
	// discards them.
	Out io.Writer
	// Progress, when non-nil, fires after every survey round and every
	// optimizer generation.
	Progress func(JobProgress)
}

// JobProgress is one progress notification: a survey round (Round set,
// Phase 0 for SURF and 1 for Internet2) or an optimizer generation
// (Optimize set).
type JobProgress struct {
	Phase    int
	Round    *RoundProgress
	Optimize *OptimizeProgress
}

// Report is a finished job's result as the service serves it: each
// kind's result fills its own section of the output document.
type Report interface {
	digest(*JobDocument)
}

// jobKind is one registry entry: the kind's option check and its run.
type jobKind struct {
	name string
	// ready reports whether the job selects what the kind runs; want
	// names what is missing when it does not.
	ready func(*Job) bool
	want  string
	run   runFunc
}

// runFunc is a kind's Run as the registry holds it: ctx, the
// registry, and the checkpoint directory in; the result as a Report.
type runFunc func(*Job, context.Context, *telemetry.Registry, *CheckpointDir) (Report, error)

// jobKinds is the registry. A kind's index is its stable wire id (the
// RJOB kind byte), so entries are only ever appended.
var jobKinds = [...]jobKind{
	{"survey", func(*Job) bool { return true }, "", reporting((*Job).RunSurvey)},
	{"sweep", func(j *Job) bool { return j.Options.Faults > 0 }, "options.faults in (0, 1]", reporting((*Job).RunSweep)},
	{"workload", workloadReady,
		fmt.Sprintf("options.workload (one of %v; replay needs an MRT trace, which only the CLI's -trace supplies)", WorkloadNames()),
		reporting((*Job).RunWorkload)},
	{"scenario", func(j *Job) bool { return j.Options.Scenario != "" },
		fmt.Sprintf("options.scenario (one of %v)", faults.ScenarioNames()), reporting((*Job).RunScenario)},
	{"optimize", func(j *Job) bool { return j.Options.Objective != "" },
		"options.objective (catchment:re=<frac> or probe:re=,commodity=,loss=)", reporting((*Job).RunOptimize)},
}

// reporting adapts a kind's typed Run to a runFunc, keeping a failed
// run's nil result from becoming a non-nil Report.
func reporting[R Report](run func(*Job, context.Context, *telemetry.Registry, *CheckpointDir) (R, error)) runFunc {
	return func(j *Job, ctx context.Context, reg *telemetry.Registry, ck *CheckpointDir) (Report, error) {
		r, err := run(j, ctx, reg, ck)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// workloadReady: a workload is named, and a replay has its trace.
func workloadReady(j *Job) bool {
	return j.Options.Workload != "" && (j.Options.Workload != "replay" || j.Trace != nil)
}

// JobKinds lists the registered kind names; a name's index is its
// stable wire id.
func JobKinds() []string {
	names := make([]string, len(jobKinds))
	for i, k := range jobKinds {
		names[i] = k.name
	}
	return names
}

func (j *Job) kind() (*jobKind, error) {
	for i := range jobKinds {
		if jobKinds[i].name == j.Kind {
			return &jobKinds[i], nil
		}
	}
	return nil, fmt.Errorf("unknown job kind %q: want one of %v", j.Kind, JobKinds())
}

// Check rejects a job its kind cannot run: the kind's own requirements,
// then JobOptions.Validate — the check the CLI runs on its flags and
// resurveyd on every submission.
func (j *Job) Check() error {
	k, err := j.kind()
	if err != nil {
		return err
	}
	if !k.ready(j) {
		return fmt.Errorf("%s job needs %s", k.name, k.want)
	}
	return j.Options.Validate()
}

// Run runs a checked job of the registered kind j.Kind. reg (nil
// disables telemetry) must be fresh: a resumed run restores its
// checkpoint's telemetry state into it. ck is where surveys and
// searches checkpoint and resume from; nil runs without either. ctx
// cancels the run at its next round, generation, or event boundary.
func (j *Job) Run(ctx context.Context, reg *telemetry.Registry, ck *CheckpointDir) (Report, error) {
	k, err := j.kind()
	if err != nil {
		return nil, err
	}
	return k.run(j, ctx, reg, ck)
}

func (j *Job) printf(format string, args ...any) {
	if j.Out != nil {
		fmt.Fprintf(j.Out, format, args...)
	}
}

// SurveyFingerprint is the checkpoint compatibility key of the job's
// survey configuration (worker count excluded — see
// CheckpointFingerprint).
func (j *Job) SurveyFingerprint() CheckpointFingerprint {
	return CheckpointFingerprint{
		Seed:        j.Options.Seed,
		Small:       j.Options.Small,
		Incremental: j.Options.Incremental,
		Faults:      j.Options.Faults,
		NSeeds:      max(j.Seeds, 1),
	}
}

// --- survey ---

// SurveyReport is a finished survey: the run's world and both
// experiments' results.
type SurveyReport struct {
	Survey *Survey
	// Pristine is the post-build engine snapshot a multi-seed rerun
	// rewinds to; nil unless Job.Seeds > 1 at small scale.
	Pristine []byte
}

func (r *SurveyReport) digest(d *JobDocument) {
	d.SURF = summarizeResult(r.Survey.SURF)
	d.Internet2 = summarizeResult(r.Survey.Internet2)
}

// RunSurvey builds the world, resumes from the newest usable
// checkpoint in ckd (nil: none), checkpoints there after every
// configuration round, and runs both experiments. A resumed run
// reproduces the uninterrupted run's output byte for byte at any
// worker count. The paper's analysis of the result is cmd/resurvey's.
func (j *Job) RunSurvey(ctx context.Context, reg *telemetry.Registry, ckd *CheckpointDir) (*SurveyReport, error) {
	fp := j.SurveyFingerprint()
	ck := ckd.LatestSurvey(fp, reg)

	// On resume the checkpointed state already contains the completed
	// build phase; re-recording it would duplicate the span.
	var buildSpan *telemetry.Span
	if ck == nil {
		buildSpan = reg.StartSpan("build")
	}
	j.printf("building ecosystem (seed %d)...\n", j.Options.Seed)
	s := j.Options.Pipeline(reg).NewSurvey()
	buildSpan.End()
	rep := &SurveyReport{Survey: s}

	// The pristine post-build engine state is the fork point the
	// multi-seed warm start rewinds to; capture it before any restore
	// or experiment touches the network. snapshot_bytes is counted only
	// on cold runs — a resumed registry already carries the count.
	if j.Seeds > 1 && j.Options.Small {
		var buf bytes.Buffer
		if err := s.Eco.Net.Snapshot(&buf); err == nil {
			rep.Pristine = buf.Bytes()
			if ck == nil {
				reg.Counter("snapshot_bytes").Add(int64(len(rep.Pristine)))
			}
		}
	}

	if ck != nil {
		if err := bgp.RestoreNetwork(bytes.NewReader(ck.Engine), s.Eco.Net); err != nil {
			return nil, fmt.Errorf("resume: restore engine state: %w", err)
		}
		s.Resume = ck
	}
	if ckd != nil {
		s.Checkpoint = func(c *Checkpoint) { ckd.saveSurvey(fp, c, s, reg) }
	}
	if j.Progress != nil {
		s.Progress = func(phase int, ev RoundProgress) { j.Progress(JobProgress{Phase: phase, Round: &ev}) }
	}
	st := s.Sel.Stats
	origins := map[asn.AS]bool{}
	for _, pi := range s.Eco.Prefixes {
		origins[pi.Origin] = true
	}
	j.printf("  %d R&E-connected origin ASes; %d prefixes announced, %d excluded as entirely covered (§3.2), %d probed\n",
		len(origins), len(s.Eco.Prefixes), len(s.Eco.Prefixes)-st.Prefixes, st.Prefixes)
	j.printf("  %d with ISI seeds (%s), %d responsive (%s), %d with three targets (%s)\n\n",
		st.WithISISeed, report.Pct(st.WithISISeed, st.Prefixes),
		st.Responsive, report.Pct(st.Responsive, st.Prefixes),
		st.WithMaxTargets, report.Pct(st.WithMaxTargets, st.Responsive))

	j.printf("running SURF and Internet2 experiments...\n")
	if err := s.RunBothContext(ctx); err != nil {
		return nil, err
	}
	j.printf("\n")
	return rep, nil
}

// --- fault sweep ---

// SweepReport is a finished fault-intensity sweep.
type SweepReport []FaultSweepPoint

// WriteText renders the accuracy-vs-intensity table.
func (r SweepReport) WriteText(w io.Writer) error {
	_, err := fmt.Fprintln(w, FaultSweepTable(r))
	return err
}

func (r SweepReport) digest(d *JobDocument) {
	for _, pt := range r {
		d.Sweep = append(d.Sweep, SweepSummary{
			Intensity:      pt.Intensity,
			SessionFaults:  pt.SessionFaults,
			Accuracy:       pt.Accuracy,
			MeanConfidence: pt.MeanConfidence,
			OutageClasses:  pt.OutageClasses,
		})
	}
}

// RunSweep runs the fault-intensity sweep. Sweep points have no
// per-round checkpoint, so an interrupted sweep re-runs from the start
// — the output is deterministic either way.
func (j *Job) RunSweep(ctx context.Context, reg *telemetry.Registry, _ *CheckpointDir) (SweepReport, error) {
	j.printf("running fault-intensity sweep (reduced scale, up to %.2f)...\n", j.Options.Faults)
	return RunFaultSweepContext(ctx, j.Options.Pipeline(reg).FaultSweepOptions())
}

// --- workload ---

func (r *WorkloadResult) digest(d *JobDocument) {
	d.Workload = &WorkloadSummary{
		Name:             r.Name,
		DurationSeconds:  int64(r.Duration),
		RoundMode:        r.RoundMode,
		Events:           r.EventsByKind,
		Dispatched:       r.Dispatched,
		BGPEvents:        r.BGPEvents,
		UpdatesDelivered: r.UpdatesDelivered,
		RFDPenalties:     r.RFDPenalties,
		RFDSuppressions:  r.RFDSuppressions,
		ProbeRounds:      r.ProbeRounds,
		ProbesSent:       r.ProbesSent,
		ProbesResponded:  r.ProbesResponded,
		RIBDigest:        fmt.Sprintf("%016x", r.RIBDigest),
	}
}

// RunWorkload drives a named virtual-clock workload. Workload runs
// have no checkpoint — a recovered job re-runs from cold and, being
// deterministic, reproduces the same output.
func (j *Job) RunWorkload(ctx context.Context, reg *telemetry.Registry, _ *CheckpointDir) (*WorkloadResult, error) {
	wopts := j.Options.WorkloadOptions()
	wopts.Trace = j.Trace
	j.printf("building ecosystem (seed %d)...\n", j.Options.Seed)
	return j.Options.Pipeline(reg).RunWorkload(ctx, wopts)
}

// --- scenario sweep ---

// ScenarioReport is a finished scenario sweep.
type ScenarioReport struct {
	scenario string
	points   []ScenarioPoint
}

// WriteText renders the per-adoption containment table.
func (r *ScenarioReport) WriteText(w io.Writer) error {
	_, err := fmt.Fprintln(w, ScenarioSweepTable(r.scenario, r.points))
	return err
}

func (r *ScenarioReport) digest(d *JobDocument) {
	for _, pt := range r.points {
		d.Scenario = append(d.Scenario, ScenarioSummary{
			Adoption:         pt.Adoption,
			Baseline:         pt.Baseline,
			Deployed:         pt.Deployed,
			PollutedASes:     pt.PollutedASes,
			CleanASes:        pt.CleanASes,
			UnreachableASes:  pt.UnreachableASes,
			LeakAffectedASes: pt.LeakAffectedASes,
			LeakedRoutes:     pt.LeakedRoutes,
			Accuracy:         pt.Accuracy,
			MidSignature:     fmt.Sprintf("%016x", pt.MidSignature),
			EndDigest:        fmt.Sprintf("%016x", pt.EndDigest),
		})
	}
}

// RunScenario injects the adversarial schedule at every ROV adoption
// point. Like sweeps, scenario runs have no checkpoint; a recovered job
// re-runs from cold.
func (j *Job) RunScenario(ctx context.Context, reg *telemetry.Registry, _ *CheckpointDir) (*ScenarioReport, error) {
	j.printf("building ecosystems (seed %d)...\n", j.Options.Seed)
	j.printf("running %s scenario sweep over ROV adoption (reduced scale)...\n", j.Options.Scenario)
	pts, err := RunScenarioSweepContext(ctx, j.Options.Pipeline(reg).ScenarioSweepOptions())
	if err != nil {
		return nil, err
	}
	return &ScenarioReport{scenario: j.Options.Scenario, points: pts}, nil
}

// --- optimize ---

func (r *OptimizeResult) digest(d *JobDocument) {
	sum := &OptimizeSummary{
		Objective:        r.Objective,
		Strategy:         r.Strategy,
		Budget:           r.Budget,
		Evaluated:        r.Evaluated,
		Generations:      r.Generations,
		Restarts:         r.Restarts,
		BaselineScore:    r.BaselineScore,
		BestScore:        r.Best.Score,
		BestConfig:       r.Best.Candidate.Label(),
		WarmRestores:     r.WarmRestores,
		ColdBuilds:       r.ColdBuilds,
		EvalDecisionRuns: r.EvalDecisionRuns,
	}
	for _, p := range r.Trajectory {
		sum.Trajectory = append(sum.Trajectory, OptimizePoint{
			Generation: p.Generation,
			Evaluated:  p.Evaluated,
			BestScore:  p.BestScore,
			BestConfig: p.BestLabel,
		})
	}
	d.Optimize = sum
}

// RunOptimize searches the configuration space, checkpointing the
// encoded search state in ckd (nil: none) after every generation and
// resuming from the newest state whose fingerprint matches, so a
// restarted search continues where the lost one stopped.
func (j *Job) RunOptimize(ctx context.Context, reg *telemetry.Registry, ckd *CheckpointDir) (*OptimizeResult, error) {
	opts := j.Options.Pipeline(reg).OptimizeOptions()
	if ckd != nil {
		fp, err := searchFingerprint(opts)
		if err != nil {
			return nil, err
		}
		opts.Resume = ckd.LatestSearch(fp)
		opts.Checkpoint = func(state []byte, p OptimizeProgress) { ckd.saveSearch(p.Generation, state) }
	}
	if j.Progress != nil {
		opts.Progress = func(p OptimizeProgress) { j.Progress(JobProgress{Optimize: &p}) }
	}
	j.printf("optimizing %s with %s (budget %d, seed %d)...\n\n",
		opts.Objective, opts.Strategy, opts.Budget, j.Options.Seed)
	return RunOptimizeContext(ctx, opts)
}

// searchFingerprint is the resume-compatibility key of a search
// configuration: the key RunOptimizeContext demands of a Resume blob.
func searchFingerprint(opts OptimizeOptions) (optimize.Fingerprint, error) {
	obj, err := optimize.ParseSpec(opts.Objective)
	if err != nil {
		return optimize.Fingerprint{}, err
	}
	sr, err := optimize.NewSearcher(opts.Strategy)
	if err != nil {
		return optimize.Fingerprint{}, err
	}
	return optimize.FingerprintFor(obj, sr, optimize.Options{
		Seed: opts.SearchSeed, Budget: opts.Budget, Lambda: opts.Lambda,
	}), nil
}

// --- the service's output document ---

// JobDocument is the output document resurveyd serves for a finished
// job: the kind's digest plus the run's full telemetry manifest. Every
// field serializes deterministically (JSON object keys and map keys
// are sorted), so a resumed job reproduces a cold run's document byte
// for byte.
type JobDocument struct {
	SURF      *ResultSummary    `json:"surf,omitempty"`
	Internet2 *ResultSummary    `json:"internet2,omitempty"`
	Sweep     []SweepSummary    `json:"sweep,omitempty"`
	Workload  *WorkloadSummary  `json:"workload,omitempty"`
	Scenario  []ScenarioSummary `json:"scenario,omitempty"`
	Optimize  *OptimizeSummary  `json:"optimize,omitempty"`
	Manifest  json.RawMessage   `json:"manifest"`
}

// Document renders rep as the service's JSON output document, with
// reg's manifest (wall times zeroed) recording opts.
func Document(rep Report, reg *telemetry.Registry, opts JobOptions) ([]byte, error) {
	m, err := reg.Snapshot(telemetry.SnapshotOptions{
		Seed:          opts.Seed,
		Options:       opts,
		ZeroDurations: true,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	doc := &JobDocument{Manifest: json.RawMessage(bytes.TrimSpace(buf.Bytes()))}
	rep.digest(doc)
	return json.Marshal(doc)
}

// ResultSummary is the digest of one experiment.
type ResultSummary struct {
	Name     string         `json:"name"`
	Rounds   int            `json:"rounds"`
	Prefixes int            `json:"prefixes"`
	Classes  map[string]int `json:"classes"`
}

func summarizeResult(res *Result) *ResultSummary {
	if res == nil {
		return nil
	}
	s := &ResultSummary{
		Name:     res.Name,
		Rounds:   len(res.Rounds),
		Prefixes: len(res.PerPrefix),
		Classes:  map[string]int{},
	}
	for _, pr := range res.PerPrefix {
		s.Classes[pr.Inference.String()]++
	}
	return s
}

// SweepSummary is the digest of one fault-sweep point.
type SweepSummary struct {
	Intensity      float64 `json:"intensity"`
	SessionFaults  int     `json:"session_faults"`
	Accuracy       float64 `json:"accuracy"`
	MeanConfidence float64 `json:"mean_confidence"`
	OutageClasses  int     `json:"outage_classes"`
}

// WorkloadSummary is the digest of one workload run. The wall-derived
// speedup ratio is deliberately absent.
type WorkloadSummary struct {
	Name             string           `json:"name"`
	DurationSeconds  int64            `json:"duration_seconds"`
	RoundMode        bool             `json:"round_mode"`
	Events           map[string]int64 `json:"events"`
	Dispatched       int64            `json:"dispatched"`
	BGPEvents        int              `json:"bgp_events"`
	UpdatesDelivered int64            `json:"updates_delivered"`
	RFDPenalties     int64            `json:"rfd_penalties"`
	RFDSuppressions  int64            `json:"rfd_suppressions"`
	ProbeRounds      int              `json:"probe_rounds"`
	ProbesSent       int              `json:"probes_sent"`
	ProbesResponded  int              `json:"probes_responded"`
	RIBDigest        string           `json:"rib_digest"`
}

// ScenarioSummary is the digest of one scenario-sweep point.
type ScenarioSummary struct {
	Adoption         float64 `json:"adoption"`
	Baseline         bool    `json:"baseline,omitempty"`
	Deployed         int     `json:"deployed"`
	PollutedASes     int     `json:"polluted_ases"`
	CleanASes        int     `json:"clean_ases"`
	UnreachableASes  int     `json:"unreachable_ases"`
	LeakAffectedASes int     `json:"leak_affected_ases"`
	LeakedRoutes     int     `json:"leaked_routes"`
	Accuracy         float64 `json:"accuracy"`
	MidSignature     string  `json:"mid_signature"`
	EndDigest        string  `json:"end_digest"`
}

// OptimizeSummary is the digest of one policy-optimization search.
type OptimizeSummary struct {
	Objective        string          `json:"objective"`
	Strategy         string          `json:"strategy"`
	Budget           int             `json:"budget"`
	Evaluated        int             `json:"evaluated"`
	Generations      int             `json:"generations"`
	Restarts         int             `json:"restarts"`
	BaselineScore    float64         `json:"baseline_score"`
	BestScore        float64         `json:"best_score"`
	BestConfig       string          `json:"best_config"`
	WarmRestores     int64           `json:"warm_restores"`
	ColdBuilds       int64           `json:"cold_builds"`
	EvalDecisionRuns int64           `json:"eval_decision_runs"`
	Trajectory       []OptimizePoint `json:"trajectory,omitempty"`
}

// OptimizePoint is one generation of the search trajectory.
type OptimizePoint struct {
	Generation int     `json:"generation"`
	Evaluated  int     `json:"evaluated"`
	BestScore  float64 `json:"best_score"`
	BestConfig string  `json:"best_config"`
}
