package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

func optTestOptions(strategy string, workers int) OptimizeOptions {
	return OptimizeOptions{
		Survey:      SmallSurveyOptions(),
		Objective:   "catchment:re=0.3",
		Strategy:    strategy,
		Budget:      8,
		Workers:     workers,
		SearchSeed:  7,
		Incremental: true,
	}
}

// optimizeArtifacts runs one search and returns every deterministic
// output surface: the report, the zero-duration manifest, and the
// encoded final search state.
func optimizeArtifacts(t *testing.T, opts OptimizeOptions) (report, manifest, state []byte, res *OptimizeResult) {
	t.Helper()
	reg := telemetry.New()
	opts.Metrics = reg
	res, err := RunOptimizeContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := res.WriteText(&rep); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Snapshot(telemetry.SnapshotOptions{Seed: opts.SearchSeed, ZeroDurations: true})
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := m.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return rep.Bytes(), mb.Bytes(), res.State, res
}

// TestOptimizeWorkersEqualityMatrix pins the determinism contract the
// ISSUE's tentpole demands: the same seed, objective, and budget must
// produce byte-identical reports, manifests, and search states at
// workers 1, 2, and 8 — across both strategies and both RIB store
// layouts.
func TestOptimizeWorkersEqualityMatrix(t *testing.T) {
	for _, strategy := range []string{"hillclimb", "evolve"} {
		for _, arena := range []bool{false, true} {
			var baseRep, baseMan, baseState []byte
			for _, w := range []int{1, 2, 8} {
				opts := optTestOptions(strategy, w)
				opts.Survey.Topology.CompactRIB = arena
				rep, man, state, res := optimizeArtifacts(t, opts)
				if res.Evaluated != opts.Budget {
					t.Fatalf("%s arena=%v workers=%d: evaluated %d, want %d",
						strategy, arena, w, res.Evaluated, opts.Budget)
				}
				if baseRep == nil {
					baseRep, baseMan, baseState = rep, man, state
					continue
				}
				if !bytes.Equal(rep, baseRep) {
					t.Errorf("%s arena=%v: report at workers=%d differs from workers=1:\n%s\nvs\n%s",
						strategy, arena, w, rep, baseRep)
				}
				if !bytes.Equal(man, baseMan) {
					t.Errorf("%s arena=%v: manifest at workers=%d differs from workers=1:\n%s\nvs\n%s",
						strategy, arena, w, man, baseMan)
				}
				if !bytes.Equal(state, baseState) {
					t.Errorf("%s arena=%v: search state at workers=%d differs from workers=1",
						strategy, arena, w)
				}
			}
		}
	}
}

// TestOptimizeBestMonotone: against the real evaluator, the best-so-far
// score never decreases across generations, for both strategies.
func TestOptimizeBestMonotone(t *testing.T) {
	for _, strategy := range []string{"hillclimb", "evolve"} {
		_, _, _, res := optimizeArtifacts(t, optTestOptions(strategy, 4))
		prev := -1.0
		for _, p := range res.Trajectory {
			if p.BestScore < prev {
				t.Fatalf("%s: best score decreased at generation %d: %v -> %v",
					strategy, p.Generation, prev, p.BestScore)
			}
			prev = p.BestScore
		}
		if res.Best.Score != prev {
			t.Fatalf("%s: result best %v != trajectory end %v", strategy, res.Best.Score, prev)
		}
	}
}

// TestOptimizeEvaluationPreservesPristine is the evaluator purity
// property: evaluating candidates never corrupts the pristine fork
// point. After N evaluations the snapshot restores bit-exactly — same
// RIB digest, byte-identical re-snapshot — and re-evaluating the same
// candidates yields identical observations.
func TestOptimizeEvaluationPreservesPristine(t *testing.T) {
	opts := optTestOptions("hillclimb", 1)
	obj, err := optimize.ParseSpec(opts.Objective)
	if err != nil {
		t.Fatal(err)
	}
	driver := NewSurvey(opts.Survey)
	driver.SetIncremental(opts.Incremental)
	x := NewSURFExperiment(driver.Eco, driver.World, driver.Prober, driver.Sel, optStart)
	x.Converge()
	var snap bytes.Buffer
	if err := driver.Eco.Net.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	d0 := ribDigest(driver.Eco)

	ev := newPolicyEvaluator(opts, obj, driver, snap.Bytes(), 1)
	rng := parallel.Rand(99, 0)
	cands := make([]optimize.Candidate, 6)
	for i := range cands {
		cands[i] = optimize.Random(rng)
	}
	first := make([]optimize.Eval, len(cands))
	for i, c := range cands {
		e, err := ev.Evaluate(context.Background(), c)
		if err != nil {
			t.Fatalf("candidate %d (%s): %v", i, c.Label(), err)
		}
		first[i] = e
	}
	// Same candidates again (in reverse): evaluation must be pure.
	for i := len(cands) - 1; i >= 0; i-- {
		e, err := ev.Evaluate(context.Background(), cands[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e, first[i]) {
			t.Fatalf("candidate %d (%s): second evaluation %+v != first %+v",
				i, cands[i].Label(), e, first[i])
		}
	}

	// Rewinding returns the world to the pristine fork point exactly.
	slot := <-ev.pool
	if err := ev.rewind(slot); err != nil {
		t.Fatal(err)
	}
	if d := ribDigest(driver.Eco); d != d0 {
		t.Fatalf("post-rewind RIB digest %x != pristine %x", d, d0)
	}
	var again bytes.Buffer
	if err := driver.Eco.Net.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Fatal("post-rewind snapshot is not byte-identical to the pristine snapshot")
	}
}

// TestOptimizeZeroBudget: a zero-budget run returns the baseline
// configuration with no search evaluations.
func TestOptimizeZeroBudget(t *testing.T) {
	opts := optTestOptions("hillclimb", 2)
	opts.Budget = 0
	res, err := RunOptimizeContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Candidate != optimize.Baseline() {
		t.Fatalf("zero budget returned %v, want baseline", res.Best.Candidate.Genes)
	}
	if res.Evaluated != 0 || len(res.Trajectory) != 0 {
		t.Fatalf("zero budget evaluated %d candidates, trajectory %v", res.Evaluated, res.Trajectory)
	}
	if res.Best.Score != res.BaselineScore {
		t.Fatalf("zero-budget best score %v != baseline score %v", res.Best.Score, res.BaselineScore)
	}
	var rep bytes.Buffer
	if err := res.WriteText(&rep); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeWarmStartSavings pins the acceptance criterion: warm
// evaluation (rewind a converged snapshot, apply the delta) must cost
// at least 3x fewer convergence decision evaluations than cold
// re-convergence of a fresh world per candidate. Same seed and budget,
// so both runs evaluate the same candidates.
func TestOptimizeWarmStartSavings(t *testing.T) {
	warmOpts := optTestOptions("evolve", 2)
	warmOpts.Budget = 4
	warm, err := RunOptimizeContext(context.Background(), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := warmOpts
	coldOpts.Cold = true
	cold, err := RunOptimizeContext(context.Background(), coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Best != cold.Best || !reflect.DeepEqual(warm.Trajectory, cold.Trajectory) {
		t.Fatalf("warm and cold searches diverged:\nwarm %+v %v\ncold %+v %v",
			warm.Best, warm.Trajectory, cold.Best, cold.Trajectory)
	}
	if warm.WarmRestores == 0 || cold.ColdBuilds == 0 {
		t.Fatalf("accounting: warm restores %d, cold builds %d", warm.WarmRestores, cold.ColdBuilds)
	}
	if cold.EvalDecisionRuns < 3*warm.EvalDecisionRuns {
		t.Fatalf("warm start saved too little: warm %d decision runs vs cold %d (< 3x)",
			warm.EvalDecisionRuns, cold.EvalDecisionRuns)
	}
}

// TestOptimizeReachesTarget pins the search's usefulness: for a target
// catchment split far from the baseline, a modest budget must find a
// configuration that closes most of the gap.
func TestOptimizeReachesTarget(t *testing.T) {
	for _, strategy := range []string{"hillclimb", "evolve"} {
		opts := optTestOptions(strategy, 4)
		opts.Budget = 12
		res, err := RunOptimizeContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Score <= res.BaselineScore {
			t.Fatalf("%s: best %v no better than baseline %v", strategy, res.Best.Score, res.BaselineScore)
		}
		if res.Best.Score < 0.65 {
			t.Fatalf("%s: best score %v did not approach the re=0.3 target (baseline %v)",
				strategy, res.Best.Score, res.BaselineScore)
		}
		if res.Best.Candidate == optimize.Baseline() {
			t.Fatalf("%s: search claims improvement but returned the baseline config", strategy)
		}
	}
}

// TestOptimizeCheckpointResume: resuming from a mid-search checkpoint
// blob reproduces the one-shot run's final state bit-exactly.
func TestOptimizeCheckpointResume(t *testing.T) {
	opts := optTestOptions("evolve", 2)
	var blobs [][]byte
	opts.Progress = func(OptimizeProgress) {}
	opts.Checkpoint = func(state []byte, _ OptimizeProgress) {
		blobs = append(blobs, append([]byte(nil), state...))
	}
	full, err := RunOptimizeContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != full.Generations {
		t.Fatalf("got %d checkpoints for %d generations", len(blobs), full.Generations)
	}

	resumeOpts := optTestOptions("evolve", 8)
	resumeOpts.Resume = blobs[0]
	resumed, err := RunOptimizeContext(context.Background(), resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.State, full.State) {
		t.Fatal("resumed final search state differs from the one-shot run")
	}
	if resumed.Best != full.Best {
		t.Fatalf("resumed best %+v != one-shot best %+v", resumed.Best, full.Best)
	}

	// A checkpoint from a different search must be refused.
	other := optTestOptions("hillclimb", 2)
	other.Resume = blobs[0]
	if _, err := RunOptimizeContext(context.Background(), other); err == nil {
		t.Fatal("resume accepted a checkpoint from a different strategy")
	}
}

// TestOptimizePipelineWiring: the pipeline derives the optimize
// configuration from the session seed and options.
func TestOptimizePipelineWiring(t *testing.T) {
	p := NewPipeline(WithSmall(), WithSeed(11), WithWorkers(3),
		WithObjective("catchment:re=0.4"), WithBudget(9), WithStrategy("evolve"))
	opts := p.OptimizeOptions()
	if opts.Objective != "catchment:re=0.4" || opts.Budget != 9 || opts.Strategy != "evolve" {
		t.Fatalf("pipeline options not threaded: %+v", opts)
	}
	if opts.Workers != 3 || !opts.Incremental {
		t.Fatalf("workers/incremental not threaded: %+v", opts)
	}
	if want := parallel.SubSeed(11, optimizeSeedStream); opts.SearchSeed != want {
		t.Fatalf("search seed %d, want SubSeed(11, optimizeSeedStream) = %d", opts.SearchSeed, want)
	}
	if NewPipeline().OptimizeOptions().Strategy != "hillclimb" {
		t.Fatal("default strategy is not hillclimb")
	}
}
