package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cliconf"
	"repro/internal/core"
	snap "repro/internal/snapshot"
)

// jobState reads a job's state under the server lock (test helper).
func (s *Server) jobState(id string) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j.state
	}
	return numStates
}

func (s *Server) counter(name string) int64 { return s.reg.Counter(name).Value() }

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJob(t *testing.T, url string, spec string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func waitCounter(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.counter(name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d (timed out)", name, s.counter(name), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverload is the acceptance check: 100 concurrent submissions
// against a 4-job admission limit produce a correct 202/429 mix, every
// 429 carries Retry-After, nothing crashes, and the shed/completed
// counters match the observed responses exactly.
func TestOverload(t *testing.T) {
	s := newTestServer(t, Config{Admission: AdmissionConfig{MaxActive: 4}})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return []byte("{}"), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 100
	var mu sync.Mutex
	var accepted, shed, other int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJob(t, ts.URL, `{"options": {"small": true, "incremental": true}}`)
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted++
			case http.StatusTooManyRequests:
				shed++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without a Retry-After header")
				}
			default:
				other++
			}
		}()
	}
	wg.Wait()

	if other != 0 {
		t.Fatalf("%d responses were neither 202 nor 429", other)
	}
	if accepted+shed != n {
		t.Fatalf("accepted %d + shed %d != %d submissions", accepted, shed, n)
	}
	if accepted < 4 || shed == 0 {
		t.Fatalf("implausible mix under overload: %d accepted, %d shed", accepted, shed)
	}
	if got := s.counter("serve_jobs_shed_total"); got != int64(shed) {
		t.Errorf("serve_jobs_shed_total = %d, want %d (observed 429s)", got, shed)
	}
	if got := s.counter("serve_jobs_accepted_total"); got != int64(accepted) {
		t.Errorf("serve_jobs_accepted_total = %d, want %d (observed 202s)", got, accepted)
	}
	// Every accepted job runs to completion; the counters reconcile.
	waitCounter(t, s, "serve_jobs_completed_total", int64(accepted))
}

// TestTenantRateLimit checks the per-tenant bucket path end to end:
// a burst beyond the bucket sheds with 429 + Retry-After and counts in
// both serve_jobs_shed_total and serve_rate_limited_total.
func TestTenantRateLimit(t *testing.T) {
	s := newTestServer(t, Config{Admission: AdmissionConfig{RatePerSec: 0.001, Burst: 2}})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) { return []byte("{}"), nil }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codes := []int{}
	for i := 0; i < 3; i++ {
		resp := postJob(t, ts.URL, `{"tenant": "alice", "options": {"small": true}}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("rate-limited 429 without Retry-After")
		}
	}
	want := []int{202, 202, 429}
	for i := range codes {
		if codes[i] != want[i] {
			t.Fatalf("submission %d got %d, want %d (all: %v)", i, codes[i], want[i], codes)
		}
	}
	// An unrelated tenant is not starved by alice's flood.
	resp := postJob(t, ts.URL, `{"tenant": "bob", "options": {"small": true}}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("independent tenant shed with %d", resp.StatusCode)
	}
	if got := s.counter("serve_rate_limited_total"); got != 1 {
		t.Errorf("serve_rate_limited_total = %d, want 1", got)
	}
}

// TestPanicIsolation: a panicking job is marked failed and counted;
// the server keeps accepting and running later jobs.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	boom := true
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) {
		if boom {
			boom = false
			panic("boom")
		}
		return []byte("{}"), nil
	}
	j1, err := s.Submit(JobSpec{Options: cliconf.JobOptions{Small: true}})
	if err != nil {
		t.Fatal(err)
	}
	<-j1.done
	if st := s.jobState(j1.ID); st != StateFailed {
		t.Fatalf("panicked job state = %s, want failed", st)
	}
	if got := s.counter("serve_job_panics_total"); got != 1 {
		t.Errorf("serve_job_panics_total = %d, want 1", got)
	}

	j2, err := s.Submit(JobSpec{Options: cliconf.JobOptions{Small: true}})
	if err != nil {
		t.Fatalf("server stopped accepting after an isolated panic: %v", err)
	}
	<-j2.done
	if st := s.jobState(j2.ID); st != StateDone {
		t.Fatalf("job after panic = %s, want done", st)
	}
}

// TestCancel: DELETE stops a running job and settles it as cancelled.
func TestCancel(t *testing.T) {
	s := newTestServer(t, Config{})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	j, err := s.Submit(JobSpec{Options: cliconf.JobOptions{Small: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	<-j.done
	if st := s.jobState(j.ID); st != StateCancelled {
		t.Fatalf("cancelled job state = %s, want cancelled", st)
	}
	if got := s.counter("serve_jobs_cancelled_total"); got != 1 {
		t.Errorf("serve_jobs_cancelled_total = %d, want 1", got)
	}
}

// TestDeadline: a job past its timeout_seconds fails with the context
// error rather than hanging.
func TestDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	j, err := s.Submit(JobSpec{Options: cliconf.JobOptions{Small: true}, TimeoutSeconds: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if st := s.jobState(j.ID); st != StateFailed {
		t.Fatalf("timed-out job state = %s, want failed", st)
	}
}

// TestSubmitValidation: the endpoint rejects what cliconf rejects,
// with a 400, plus the serve-specific shape errors.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"kind": "nonsense"}`,
		`{"kind": "sweep"}`,    // sweep without faults
		`{"kind": "workload"}`, // workload without options.workload
		`{"kind": "workload", "options": {"workload": "replay"}}`, // no upload channel
		`{"kind": "workload", "options": {"workload": "bogus"}}`,  // cliconf name check
		`{"kind": "workload", "options": {"workload": "update-storm", "duration_seconds": -5}}`,
		`{"kind": "scenario"}`, // scenario without options.scenario
		`{"kind": "scenario", "options": {"scenario": "bogus"}}`,            // cliconf name check
		`{"kind": "scenario", "options": {"scenario": "hijack", "rov": 2}}`, // cliconf range check
		`{"kind": "optimize"}`, // optimize without options.objective
		`{"kind": "optimize", "options": {"objective": "summit:re=0.5"}}`,                  // cliconf spec check
		`{"kind": "optimize", "options": {"objective": "catchment:re=2"}}`,                 // cliconf range check
		`{"kind": "optimize", "options": {"objective": "catchment:re=0.5", "budget": -1}}`, // cliconf range check
		`{"kind": "optimize", "options": {"objective": "catchment:re=0.5", "strategy": "anneal"}}`,
		`{"options": {"faults": 2}}`,           // cliconf range check
		`{"options": {"workers": -1}}`,         // cliconf range check
		`{"timeout_seconds": -1}`,              // negative deadline
		`{"options": {"unknown_field": true}}`, // strict decoding
		`not json`,
	} {
		resp := postJob(t, ts.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestWorkloadJob runs a workload job through the real dispatcher end
// to end: the output document carries the workload summary, and a
// second identical submission reproduces it byte for byte (workload
// jobs have no checkpoint — recovery relies on exactly this).
func TestWorkloadJob(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := JobSpec{Kind: "workload", Options: cliconf.JobOptions{
		Small: true, Seed: 1, Incremental: true,
		Workload: "update-storm", DurationSeconds: 300,
	}}
	run := func() []byte {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
		s.mu.Lock()
		state, out := j.state, j.output
		s.mu.Unlock()
		if state != StateDone {
			t.Fatalf("job state %s, want done", state)
		}
		return out
	}
	out1 := run()

	var doc core.JobDocument
	if err := json.Unmarshal(out1, &doc); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	if doc.Workload == nil {
		t.Fatal("output has no workload summary")
	}
	if doc.Workload.Name != "update-storm" || doc.Workload.Dispatched == 0 {
		t.Fatalf("implausible summary: %+v", doc.Workload)
	}
	if len(doc.Workload.RIBDigest) != 16 {
		t.Fatalf("rib_digest %q, want 16 hex chars", doc.Workload.RIBDigest)
	}
	if doc.Workload.Events["announce"] == 0 || doc.Workload.Events["withdraw"] == 0 {
		t.Fatalf("flap events missing: %v", doc.Workload.Events)
	}

	if out2 := run(); !bytes.Equal(out1, out2) {
		t.Fatalf("workload job output not reproducible:\n%s\nvs\n%s", out1, out2)
	}
}

// TestWorkloadJobCancel: a DELETE reaches a workload job mid-run. The
// job checks its context after convergence and between event
// dispatches, so it settles cancelled promptly instead of running its
// hour-long virtual horizon to completion (about 40 s on a 2-core
// Xeon). A one-second workload measures the build-and-converge time
// first: a DELETE that lands before the event loop waits out at most
// that much, so the bound is that time plus 2 s however slow the host.
func TestWorkloadJobCancel(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	opts := cliconf.JobOptions{Small: true, Seed: 1, Incremental: true, Workload: "update-storm", DurationSeconds: 1}
	begin := time.Now()
	short, err := s.Submit(JobSpec{Kind: "workload", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	<-short.done
	build := time.Since(begin)
	if st := s.jobState(short.ID); st != StateDone {
		t.Fatalf("one-second workload job settled %s, want done", st)
	}

	opts.DurationSeconds = 3600
	j, err := s.Submit(JobSpec{Kind: "workload", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for s.jobState(j.ID) != StateRunning {
		time.Sleep(time.Millisecond)
	}
	// Most likely into the event loop by now; the bound holds either way.
	time.Sleep(2 * build)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	bound := build + 2*time.Second
	select {
	case <-j.done:
	case <-time.After(bound):
		t.Fatalf("workload job still %s %v after DELETE (build and convergence took %v)", s.jobState(j.ID), bound, build)
	}
	if st := s.jobState(j.ID); st != StateCancelled {
		t.Fatalf("cancelled workload job settled %s, want cancelled", st)
	}
}

// TestScenarioJob runs a hijack scenario sweep through the real
// dispatcher: the output carries one summary per adoption point with
// the containment shape (pollution at adoption 0, none at adoption 1),
// and a second identical submission reproduces it byte for byte.
func TestScenarioJob(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := JobSpec{Kind: "scenario", Options: cliconf.JobOptions{
		Small: true, Seed: 1, Scenario: "hijack", ROV: 0.25,
	}}
	run := func() []byte {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
		s.mu.Lock()
		state, out := j.state, j.output
		s.mu.Unlock()
		if state != StateDone {
			t.Fatalf("job state %s, want done", state)
		}
		return out
	}
	out1 := run()

	var doc core.JobDocument
	if err := json.Unmarshal(out1, &doc); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	// -rov 0.25 caps the ladder: baseline + adoptions {0, 0.25}.
	if len(doc.Scenario) != 3 {
		t.Fatalf("want 3 sweep points (base, 0, 0.25), got %d: %+v", len(doc.Scenario), doc.Scenario)
	}
	base, none, capped := doc.Scenario[0], doc.Scenario[1], doc.Scenario[2]
	if !base.Baseline || none.Baseline || capped.Baseline {
		t.Fatalf("baseline flags wrong: %+v", doc.Scenario)
	}
	if none.PollutedASes == 0 {
		t.Errorf("hijack at adoption 0 polluted nobody: %+v", none)
	}
	if capped.Deployed == 0 || capped.PollutedASes >= none.PollutedASes {
		t.Errorf("partial ROV did not reduce pollution: %+v vs %+v", capped, none)
	}
	for _, pt := range doc.Scenario {
		if len(pt.MidSignature) != 16 || len(pt.EndDigest) != 16 {
			t.Errorf("digests not 16 hex chars: %+v", pt)
		}
	}

	if out2 := run(); !bytes.Equal(out1, out2) {
		t.Fatalf("scenario job output not reproducible:\n%s\nvs\n%s", out1, out2)
	}
}

// TestOptimizeJob runs a policy-optimization search job through the
// real dispatcher end to end: the output document carries the search
// summary, per-generation progress is published to the event stream,
// the search state is checkpointed durably after every generation, and
// a second identical submission reproduces the output byte for byte.
func TestOptimizeJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	spec := JobSpec{Kind: "optimize", Options: cliconf.JobOptions{
		Small: true, Seed: 1, Workers: 2, Incremental: true,
		Objective: "catchment:re=0.3", Budget: 8, Strategy: "evolve",
	}}
	run := func() (*Job, []byte) {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
		s.mu.Lock()
		state, out := j.state, j.output
		s.mu.Unlock()
		if state != StateDone {
			t.Fatalf("job state %s, want done", state)
		}
		return j, out
	}
	j1, out1 := run()

	var doc core.JobDocument
	if err := json.Unmarshal(out1, &doc); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	if doc.Optimize == nil {
		t.Fatal("output has no optimize summary")
	}
	o := doc.Optimize
	if o.Objective != "catchment:re=0.3" || o.Strategy != "evolve" || o.Evaluated != 8 {
		t.Fatalf("implausible summary: %+v", o)
	}
	if o.BestScore < o.BaselineScore {
		t.Fatalf("best %v below baseline %v", o.BestScore, o.BaselineScore)
	}
	if o.WarmRestores == 0 || len(o.Trajectory) == 0 {
		t.Fatalf("warm restores %d, trajectory %d points", o.WarmRestores, len(o.Trajectory))
	}

	// Per-generation progress reached the event stream.
	s.mu.Lock()
	generations := 0
	for _, line := range j1.events {
		if strings.Contains(line, `"type":"generation"`) {
			generations++
		}
	}
	s.mu.Unlock()
	if generations != o.Generations {
		t.Errorf("%d generation events for %d generations", generations, o.Generations)
	}

	// The search state was checkpointed durably after every generation.
	ropts, _ := filepath.Glob(filepath.Join(dir, j1.ID, "*.ropt"))
	if len(ropts) != o.Generations {
		t.Errorf("%d search-state files for %d generations", len(ropts), o.Generations)
	}

	if _, out2 := run(); !bytes.Equal(out1, out2) {
		t.Fatalf("optimize job output not reproducible:\n%s\nvs\n%s", out1, out2)
	}
}

// TestEventsStream: the SSE endpoint replays the full event history —
// round events published during the run and every state transition —
// and terminates once the job is settled.
func TestEventsStream(t *testing.T) {
	s := newTestServer(t, Config{})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) {
		s.publish(j, event{Type: "round", Phase: 0, Round: nil})
		return []byte("{}"), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j, err := s.Submit(JobSpec{Options: cliconf.JobOptions{Small: true}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.done

	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/events", ts.URL, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type":"round"`, `"state":"running"`, `"state":"done"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("event stream missing %s:\n%s", want, body)
		}
	}
}

// TestHTTPSurface drives the remaining read endpoints end to end.
func TestHTTPSurface(t *testing.T) {
	s := newTestServer(t, Config{})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) { return []byte(`{"ok":true}`), nil }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(JobSpec{Tenant: "alice", Options: cliconf.JobOptions{Small: true}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.done

	var list []JobStatus
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != j.ID || list[0].State != "done" || list[0].Tenant != "alice" {
		t.Fatalf("GET /jobs = %+v", list)
	}

	resp, err = http.Get(fmt.Sprintf("%s/jobs/%s/output", ts.URL, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(out) != `{"ok":true}` {
		t.Errorf("output = %s", out)
	}

	resp, err = http.Get(ts.URL + "/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string         `json:"status"`
		Jobs   map[string]int `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Jobs["done"] != 1 {
		t.Errorf("healthz = %+v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(prom, []byte("serve_jobs_accepted_total 1")) ||
		!bytes.Contains(prom, []byte("serve_jobs_completed_total 1")) {
		t.Errorf("/metrics missing serve counters:\n%s", prom)
	}
}

// TestGracefulShutdownDrains: Shutdown waits for running jobs, rejects
// new submissions while draining, and returns once drained.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{DrainTimeout: 5 * time.Second})
	release := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) {
		<-release
		return []byte("{}"), nil
	}
	j, err := s.Submit(JobSpec{Options: cliconf.JobOptions{Small: true}})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let closing take effect

	if _, err := s.Submit(JobSpec{Options: cliconf.JobOptions{Small: true}}); err == nil {
		t.Error("submission accepted while draining")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if st := s.jobState(j.ID); st != StateDone {
		t.Errorf("drained job state = %s, want done", st)
	}
}

// TestShutdownAbandonsPastTimeout: a job that cannot finish within the
// drain budget is abandoned without a terminal transition, and a fresh
// server on the same data dir recovers and re-runs it.
func TestShutdownAbandonsPastTimeout(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir, DrainTimeout: 30 * time.Millisecond})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, error) {
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}
	j, err := s.Submit(JobSpec{Options: cliconf.JobOptions{Small: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err == nil {
		t.Fatal("Shutdown returned nil, want drain-timeout error")
	}
	if got := s.counter("serve_jobs_abandoned_total"); got != 1 {
		t.Errorf("serve_jobs_abandoned_total = %d, want 1", got)
	}

	s2 := newTestServer(t, Config{DataDir: dir})
	s2.runJob = func(ctx context.Context, j *Job) ([]byte, error) { return []byte("{}"), nil }
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
		t.Errorf("recovered job state = %s, want done", st)
	}
}

// TestJobRecordRoundTrip pins the RJOB v2 codec: every portable job
// option — including the workload, scenario, and optimizer fields v1
// silently dropped — survives the round trip, for every job kind.
func TestJobRecordRoundTrip(t *testing.T) {
	// The kind byte indexes the core registry, so its order is wire
	// format.
	if got, want := fmt.Sprint(core.JobKinds()), "[survey sweep workload scenario optimize]"; got != want {
		t.Fatalf("job kind registry order %s, want %s", got, want)
	}
	for _, spec := range []JobSpec{
		{
			Tenant:         "alice",
			Kind:           "sweep",
			Options:        cliconf.JobOptions{Small: true, Seed: 42, Workers: 3, Faults: 0.5, Incremental: true},
			TimeoutSeconds: 30,
		},
		{
			Tenant: "bob",
			Kind:   "workload",
			Options: cliconf.JobOptions{
				Small: true, Seed: 7, Incremental: true,
				Workload: "update-storm", DurationSeconds: 600, RoundMode: true,
			},
		},
		{
			Tenant: "carol",
			Kind:   "scenario",
			Options: cliconf.JobOptions{
				Scale: "paper", Seed: 9, Scenario: "hijack", ROV: 0.5,
			},
		},
		{
			Tenant: "dave",
			Kind:   "optimize",
			Options: cliconf.JobOptions{
				Small: true, Seed: 11, Workers: 2, Incremental: true,
				Objective: "catchment:re=0.3", Budget: 16, Strategy: "evolve",
			},
		},
	} {
		r := &jobRecord{
			Seq:    7,
			Spec:   spec,
			State:  StateCheckpointed,
			Error:  "transient",
			Output: []byte(`{"x":1}`),
		}
		got, err := decodeJob(encodeJob(r))
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if got.Seq != r.Seq || got.Spec != r.Spec || got.State != r.State ||
			got.Error != r.Error || !bytes.Equal(got.Output, r.Output) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, r)
		}
	}
	r := &jobRecord{Spec: JobSpec{Tenant: "x", Kind: "survey"}}
	if _, err := decodeJob(encodeJob(r)[:10]); err == nil {
		t.Error("truncated job manifest decoded without error")
	}
}

// TestJobRecordV1Compat: v1 manifests written before the job options
// grew workload/scenario/optimizer fields still decode, with the
// historical field set and the historical survey/sweep kind gate.
func TestJobRecordV1Compat(t *testing.T) {
	encodeV1 := func(kind uint8) []byte {
		w := snap.NewWriter(snap.JobMagic, 1)
		var sp snap.Enc
		sp.String("alice")
		sp.U8(kind)
		sp.Bool(true) // Small
		sp.I64(42)    // Seed
		sp.Uvarint(3) // Workers
		sp.F64(0.5)   // Faults
		sp.Bool(true) // Incremental
		sp.F64(30)    // TimeoutSeconds
		w.Section(jobSecSpec, sp.Bytes())
		var st snap.Enc
		st.Uvarint(7)
		st.U8(uint8(StateDone))
		st.String("")
		w.Section(jobSecState, st.Bytes())
		w.Section(jobSecOutput, []byte(`{"x":1}`))
		return w.Bytes()
	}
	got, err := decodeJob(encodeV1(1)) // sweep
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{
		Tenant: "alice", Kind: "sweep",
		Options:        cliconf.JobOptions{Small: true, Seed: 42, Workers: 3, Faults: 0.5, Incremental: true},
		TimeoutSeconds: 30,
	}
	if got.Spec != want || got.Seq != 7 || got.State != StateDone {
		t.Fatalf("v1 decode diverged:\n got %+v\nwant %+v", got.Spec, want)
	}
	// v1 never recorded the newer kinds; such a kind byte (4, optimize)
	// is corruption.
	if _, err := decodeJob(encodeV1(4)); err == nil {
		t.Error("v1 manifest with an optimize kind byte decoded without error")
	}
}
