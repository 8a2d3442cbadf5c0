package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

// TestWarmSweepMatchesCold pins the warm-start contract: sharing one
// converged engine snapshot across intensity points changes nothing
// observable relative to reconverging every point from scratch.
func TestWarmSweepMatchesCold(t *testing.T) {
	run := func(warm bool) ([]FaultSweepPoint, *telemetry.Registry) {
		opts := DefaultFaultSweepOptions()
		opts.Intensities = []float64{0, 0.5}
		opts.WarmStart = warm
		opts.Metrics = telemetry.New()
		pts, _ := RunFaultSweepContext(context.Background(), opts)
		return pts, opts.Metrics
	}
	cold, _ := run(false)
	warm, reg := run(true)
	if len(cold) != len(warm) {
		t.Fatalf("point counts differ: %d vs %d", len(cold), len(warm))
	}
	for i := range cold {
		c, w := cold[i], warm[i]
		if c.SessionFaults != w.SessionFaults || c.Brownouts != w.Brownouts || c.FeedGaps != w.FeedGaps {
			t.Fatalf("point %d: schedules diverged", i)
		}
		if c.Accuracy != w.Accuracy || c.MeanConfidence != w.MeanConfidence || c.OutageClasses != w.OutageClasses {
			t.Fatalf("point %d: scores diverged: %+v vs %+v", i, c, w)
		}
		if len(c.Result.PerPrefix) != len(w.Result.PerPrefix) {
			t.Fatalf("point %d: prefix counts differ", i)
		}
		for p, cp := range c.Result.PerPrefix {
			wp := w.Result.PerPrefix[p]
			if wp == nil || wp.Inference != cp.Inference || !reflect.DeepEqual(wp.Seq, cp.Seq) {
				t.Fatalf("point %d prefix %v: warm result diverged", i, p)
			}
		}
	}
	// The accounting must reflect one shared convergence.
	m, err := reg.Snapshot(telemetry.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshot.Restores != 2 || m.Snapshot.SkippedConvergenceRuns != 2 || m.Snapshot.Bytes == 0 {
		t.Fatalf("warm-start accounting = %+v", m.Snapshot)
	}
}

// TestRunMultiSeedFromWarm pins the multi-seed warm start: rewinding an
// already built survey to its pristine snapshot for the matching seed
// produces the same rows as building every world cold.
func TestRunMultiSeedFromWarm(t *testing.T) {
	opts := SmallSurveyOptions()
	seeds := []int64{1, 2}

	cold := RunMultiSeed(opts, seeds)

	o := opts
	o.Topology.Seed = seeds[0]
	warm := NewSurvey(o)
	var pristine bytes.Buffer
	if err := warm.Eco.Net.Snapshot(&pristine); err != nil {
		t.Fatal(err)
	}
	warm.RunBoth() // the "main run" the rewind must not be confused by
	mainI2 := warm.Internet2
	reg := telemetry.New()
	got := RunMultiSeedFrom(RunEnv{Survey: opts, Metrics: reg}, seeds, warm, pristine.Bytes())

	if !reflect.DeepEqual(cold.Runs, got.Runs) {
		t.Fatalf("warm rows diverged:\ncold: %+v\nwarm: %+v", cold.Runs, got.Runs)
	}
	if v := reg.Counter("snapshot_restore_total").Value(); v != 1 {
		t.Fatalf("snapshot_restore_total = %d, want 1", v)
	}
	if v := reg.Counter("core_warm_start_skipped_convergence_runs_total").Value(); v != 1 {
		t.Fatalf("skipped counter = %d, want 1", v)
	}
	// The rerun must leave the warm survey holding the same results it
	// computed the first time (resurvey reuses them for artifacts).
	if !reflect.DeepEqual(mainI2.PerPrefix, warm.Internet2.PerPrefix) {
		t.Fatal("rewound rerun changed the warm survey's Internet2 result")
	}
}

// deepCopyOrigins clones the CollectorOrigins map the way a serialized
// checkpoint would, so later mutations of the live result cannot leak
// into the resumed run.
func deepCopyOrigins(src map[uint32]*PeerView) map[uint32]*PeerView {
	out := make(map[uint32]*PeerView, len(src))
	for as, pv := range src {
		c := &PeerView{OriginsSeen: make(map[uint32]bool, len(pv.OriginsSeen)), FinalOrigin: pv.FinalOrigin}
		for o, b := range pv.OriginsSeen {
			c.OriginsSeen[o] = b
		}
		out[as] = c
	}
	return out
}

// TestSurveyCheckpointResume runs a survey cold while capturing one
// mid-experiment checkpoint, then rebuilds the world, restores the
// engine snapshot, and resumes — the resumed survey's results must be
// deeply equal to the cold run's.
func TestSurveyCheckpointResume(t *testing.T) {
	for _, tc := range []struct{ phase, done int }{{0, 2}, {1, 3}, {1, len(Schedule())}} {
		opts := SmallSurveyOptions()
		type saved struct {
			ck      *Checkpoint
			engine  []byte
			rounds  []*probe.Round
			origins map[uint32]*PeerView
		}
		var got *saved
		cold := NewSurvey(opts)
		cold.Checkpoint = func(ck *Checkpoint) {
			if ck.Phase != tc.phase || ck.Done != tc.done {
				return
			}
			var buf bytes.Buffer
			if err := cold.Eco.Net.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			got = &saved{
				ck:      ck,
				engine:  buf.Bytes(),
				rounds:  append([]*probe.Round(nil), ck.Rounds...),
				origins: deepCopyOrigins(ck.Origins),
			}
		}
		cold.RunBoth()
		if got == nil {
			t.Fatalf("checkpoint (phase %d, done %d) never fired", tc.phase, tc.done)
		}

		res := NewSurvey(opts)
		if err := bgp.RestoreNetwork(bytes.NewReader(got.engine), res.Eco.Net); err != nil {
			t.Fatalf("restore: %v", err)
		}
		res.Resume = &Checkpoint{
			Phase:      got.ck.Phase,
			Done:       got.ck.Done,
			ChurnStart: got.ck.ChurnStart,
			Start:      got.ck.Start,
			Rounds:     got.rounds,
			Origins:    got.origins,
			SURF:       got.ck.SURF,
		}
		res.RunBoth()

		if !reflect.DeepEqual(cold.SURF, res.SURF) && got.ck.Phase == 0 {
			t.Fatalf("phase %d done %d: resumed SURF result diverged", tc.phase, tc.done)
		}
		if !reflect.DeepEqual(cold.Internet2, res.Internet2) {
			t.Fatalf("phase %d done %d: resumed Internet2 result diverged", tc.phase, tc.done)
		}
	}
}
