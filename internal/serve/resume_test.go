package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/optimize"
)

// runToDone submits spec on a fresh server over dir and returns the
// finished job's output bytes.
func runToDone(t *testing.T, dir string, spec JobSpec) []byte {
	t.Helper()
	s := newTestServer(t, Config{DataDir: dir})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if st := s.jobState(j.ID); st != StateDone {
		s.mu.Lock()
		msg := j.errMsg
		s.mu.Unlock()
		t.Fatalf("job finished %s (%s), want done", st, msg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.output
}

// TestKillAndRestartByteEqual is the crash-recovery acceptance check:
// a server killed mid-survey (emulated via the checkpoint-hook crash
// knob, which leaves durable state exactly as a SIGKILL would) is
// restarted on the same data dir, resumes the interrupted job from its
// newest checkpoint, and produces output byte-for-byte equal to an
// uninterrupted run of the same spec — at any worker count.
func TestKillAndRestartByteEqual(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spec := JobSpec{Options: cliconf.JobOptions{
				Small: true, Seed: 1, Workers: workers, Incremental: true,
			}}

			cold := runToDone(t, t.TempDir(), spec)
			if len(cold) == 0 {
				t.Fatal("cold run produced empty output")
			}

			// Crash after the third durable checkpoint.
			dir := t.TempDir()
			s := newTestServer(t, Config{DataDir: dir})
			s.crashAfterCheckpoints = 3
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			<-j.done // released by the emulated crash, no terminal state
			if got := s.counter("serve_checkpoints_total"); got != 3 {
				t.Fatalf("serve_checkpoints_total = %d, want 3 before the crash", got)
			}
			if st := s.jobState(j.ID); st != StateCheckpointed {
				t.Fatalf("crashed job left in %s, want checkpointed", st)
			}
			// The durable manifest agrees with the in-memory state, and the
			// checkpoints are on disk — the restart has something to resume.
			recs, corrupt := loadJobRecords(dir)
			if corrupt != 0 || len(recs) != 1 || recs[0].State != StateCheckpointed {
				t.Fatalf("durable state after crash: %d records (%d corrupt)", len(recs), corrupt)
			}
			cks, _ := filepath.Glob(filepath.Join(dir, j.ID, "*.rckp"))
			if len(cks) == 0 {
				t.Fatal("crash left no checkpoint files")
			}

			// Restart: a fresh server over the same dir recovers the job,
			// resumes it, and finishes it.
			s2 := newTestServer(t, Config{DataDir: dir})
			if got := s2.counter("serve_jobs_recovered_total"); got != 1 {
				t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
			}
			s2.Start()
			j2 := s2.job(j.ID)
			if j2 == nil {
				t.Fatalf("restarted server lost job %s", j.ID)
			}
			<-j2.done
			if st := s2.jobState(j.ID); st != StateDone {
				t.Fatalf("resumed job finished %s, want done", st)
			}
			if got := s2.counter("serve_jobs_resumed_total"); got != 1 {
				t.Errorf("serve_jobs_resumed_total = %d, want 1", got)
			}

			s2.mu.Lock()
			resumed := j2.output
			s2.mu.Unlock()
			if !bytes.Equal(cold, resumed) {
				t.Fatalf("resumed output diverged from the uninterrupted run:\ncold    %d bytes\nresumed %d bytes", len(cold), len(resumed))
			}
		})
	}
}

// TestOptimizeKillAndRestart: a server killed mid-search (via the
// checkpoint crash knob) restarts on the same data dir, recovers the
// job — the RJOB v2 manifest preserves the objective, budget, and
// strategy — and resumes from the newest search-state checkpoint
// instead of re-evaluating the finished generations. The resumed
// search settles on the identical best configuration and score.
func TestOptimizeKillAndRestart(t *testing.T) {
	spec := JobSpec{Kind: "optimize", Options: cliconf.JobOptions{
		Small: true, Seed: 1, Workers: 2, Incremental: true,
		Objective: "catchment:re=0.3", Budget: 8, Strategy: "evolve",
	}}
	summaryOf := func(out []byte) *core.OptimizeSummary {
		t.Helper()
		var doc core.JobDocument
		if err := json.Unmarshal(out, &doc); err != nil || doc.Optimize == nil {
			t.Fatalf("bad output document (%v): %s", err, out)
		}
		return doc.Optimize
	}
	cold := summaryOf(runToDone(t, t.TempDir(), spec))

	// Crash after the first generation's durable search state.
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	s.crashAfterCheckpoints = 1
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done // released by the emulated crash, no terminal state
	if st := s.jobState(j.ID); st != StateCheckpointed {
		t.Fatalf("crashed job left in %s, want checkpointed", st)
	}
	ropts, _ := filepath.Glob(filepath.Join(dir, j.ID, "*.ropt"))
	if len(ropts) != 1 {
		t.Fatalf("crash left %d search-state files, want 1", len(ropts))
	}

	s2 := newTestServer(t, Config{DataDir: dir})
	if got := s2.counter("serve_jobs_recovered_total"); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	s2.Start()
	j2 := s2.job(j.ID)
	if j2 == nil {
		t.Fatalf("restarted server lost job %s", j.ID)
	}
	<-j2.done
	if st := s2.jobState(j.ID); st != StateDone {
		s2.mu.Lock()
		msg := j2.errMsg
		s2.mu.Unlock()
		t.Fatalf("resumed job finished %s (%s), want done", st, msg)
	}
	if got := s2.counter("serve_jobs_resumed_total"); got != 1 {
		t.Errorf("serve_jobs_resumed_total = %d, want 1", got)
	}
	s2.mu.Lock()
	out := j2.output
	s2.mu.Unlock()
	resumed := summaryOf(out)
	if resumed.BestScore != cold.BestScore || resumed.BestConfig != cold.BestConfig ||
		resumed.Evaluated != cold.Evaluated {
		t.Fatalf("resumed search diverged:\ncold    %+v\nresumed %+v", cold, resumed)
	}
	// The resumed run re-evaluated only the post-crash generations, so
	// it cost strictly fewer evaluation decision runs than the cold run.
	if resumed.EvalDecisionRuns >= cold.EvalDecisionRuns {
		t.Errorf("resume did not save work: %d decision runs vs cold %d",
			resumed.EvalDecisionRuns, cold.EvalDecisionRuns)
	}
}

// TestResumeSkipsCorruptCheckpoint: a truncated newest checkpoint falls
// back to the next-newest valid one; the job still finishes with the
// cold run's bytes.
func TestResumeSkipsCorruptCheckpoint(t *testing.T) {
	spec := JobSpec{Options: cliconf.JobOptions{Small: true, Seed: 3, Incremental: true}}
	cold := runToDone(t, t.TempDir(), spec)

	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	s.crashAfterCheckpoints = 3
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done

	// Truncate the newest checkpoint to emulate a torn write that beat
	// the atomic-rename discipline (e.g. disk corruption).
	cks, _ := filepath.Glob(filepath.Join(dir, j.ID, "*.rckp"))
	if len(cks) < 2 {
		t.Fatalf("want >= 2 checkpoints to corrupt one, got %d", len(cks))
	}
	newest := cks[len(cks)-1]
	if err := os.Truncate(newest, 10); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{DataDir: dir})
	s2.Start()
	j2 := s2.job(j.ID)
	<-j2.done
	if st := s2.jobState(j.ID); st != StateDone {
		t.Fatalf("resumed job finished %s, want done", st)
	}
	s2.mu.Lock()
	resumed := j2.output
	s2.mu.Unlock()
	if !bytes.Equal(cold, resumed) {
		t.Fatal("resume after corrupt-checkpoint fallback diverged from the cold run")
	}
	if got := s2.counter("serve_checkpoints_corrupt_total"); got != 1 {
		t.Errorf("serve_checkpoints_corrupt_total = %d, want 1", got)
	}
}

// TestResumeDiscardsUnloadableTelemetry: a job dir holds one CRC-valid
// checkpoint whose telemetry state fails part-way through loading (a
// counter, then a histogram with the wrong bucket count). The file
// counts as corrupt and the job cold-starts on a clean registry, so its
// output equals a cold run's — no stale counter leaks into the
// manifest.
func TestResumeDiscardsUnloadableTelemetry(t *testing.T) {
	spec := JobSpec{Options: cliconf.JobOptions{Small: true, Seed: 3, Incremental: true}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cold := runToDone(t, t.TempDir(), spec)

	dir := t.TempDir()
	rec := &jobRecord{Spec: spec, State: StateCheckpointed}
	if err := writeJobRecord(dir, rec); err != nil {
		t.Fatal(err)
	}
	ck := &core.Checkpoint{
		Fingerprint: spec.job().SurveyFingerprint(),
		Done:        1,
		Engine:      []byte("never restored"),
		Telemetry: []byte(`{"metrics":{"counters":[{"name":"stale_total","value":7}],` +
			`"histograms":[{"name":"h","count":1,"sum":1,"buckets":[{"le":"+Inf","count":1}]}]}}`),
	}
	ckd := core.CheckpointDir{Path: filepath.Join(dir, rec.id())}
	if err := ckd.WriteFile("ckpt-0-01.rckp", ck.Encode()); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{DataDir: dir})
	s.Start()
	j := s.job(rec.id())
	<-j.done
	if st := s.jobState(j.ID); st != StateDone {
		t.Fatalf("job finished %s, want done", st)
	}
	s.mu.Lock()
	out := j.output
	s.mu.Unlock()
	if !bytes.Equal(cold, out) {
		t.Fatal("job resumed over an unloadable checkpoint diverged from a cold run")
	}
	if got := s.counter("serve_checkpoints_corrupt_total"); got != 1 {
		t.Errorf("serve_checkpoints_corrupt_total = %d, want 1", got)
	}
	if got := s.counter("serve_jobs_resumed_total"); got != 0 {
		t.Errorf("serve_jobs_resumed_total = %d, want 0 (cold start)", got)
	}
}

// TestLoadersSkipTornFiles covers every durable format's loader: a
// zero-length or truncated newest file is counted corrupt and skipped,
// falling back to the next valid file or, with none left, to a cold
// start.
func TestLoadersSkipTornFiles(t *testing.T) {
	ckFP := core.CheckpointFingerprint{Seed: 1, NSeeds: 1}
	optFP := optimize.Fingerprint{Seed: 1, Strategy: "hillclimb", Objective: "catchment:re=0.4", Budget: 8, Lambda: 4}
	formats := []struct {
		name string
		// file names the i-th file; higher i is newer.
		file func(i int) string
		data []byte
		// load reports whether a valid file was found, and how many
		// corrupt ones were skipped.
		load func(dir string) (bool, int)
	}{
		{
			name: "RCKP",
			file: func(i int) string { return fmt.Sprintf("ckpt-0-%02d.rckp", i) },
			data: (&core.Checkpoint{Fingerprint: ckFP, Engine: []byte("e")}).Encode(),
			load: func(dir string) (bool, int) {
				corrupt := 0
				d := &core.CheckpointDir{Path: dir, Resume: true, Corrupt: func(n int) { corrupt += n }}
				return d.LatestSurvey(ckFP, nil) != nil, corrupt
			},
		},
		{
			name: "ROPT",
			file: func(i int) string { return fmt.Sprintf("search-%04d.ropt", i) },
			data: optimize.EncodeState(optFP, &optimize.State{Generation: 1, Evaluated: 4}),
			load: func(dir string) (bool, int) {
				corrupt := 0
				d := &core.CheckpointDir{Path: dir, Resume: true, Corrupt: func(n int) { corrupt += n }}
				return d.LatestSearch(optFP) != nil, corrupt
			},
		},
		{
			name: "RJOB",
			file: func(i int) string { return filepath.Join(jobID(uint64(i)), "job.rjob") },
			data: encodeJob(&jobRecord{Spec: JobSpec{Tenant: "t", Kind: "survey"}, State: StateQueued}),
			load: func(dir string) (bool, int) {
				recs, corrupt := loadJobRecords(dir)
				return len(recs) == 1, corrupt
			},
		},
	}
	for _, f := range formats {
		for _, torn := range []struct {
			name string
			data []byte
		}{{"zero-length", nil}, {"truncated", f.data[:len(f.data)/2]}} {
			for _, older := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/older=%v", f.name, torn.name, older), func(t *testing.T) {
					dir := t.TempDir()
					write := func(name string, data []byte) {
						path := filepath.Join(dir, name)
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					if older {
						write(f.file(1), f.data)
					}
					write(f.file(2), torn.data)
					found, corrupt := f.load(dir)
					if found != older || corrupt != 1 {
						t.Fatalf("found=%v corrupt=%d, want found=%v corrupt=1", found, corrupt, older)
					}
				})
			}
		}
	}
}
