package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/perfbench/stats"
)

// The service-jobs traffic: serviceClients closed-loop clients over
// loopback cycle through one job list generated from the seed. A run
// times serviceSetups daemon starts on fresh data dirs; the last one
// serves the loop.
const (
	serviceClients = 2
	serviceSetups  = 9
)

// serviceJob is one entry of the generated job list.
type serviceJob struct {
	kind string
	body []byte
}

// jobList generates the seed's jobs: mostly small surveys with distinct
// seeds (each writes a checkpoint per round), plus small update-storm
// workload jobs (engine and vtime, no checkpoints) and small optimize
// jobs (snapshot restore), sized so that each kind takes a comparable
// share of the run.
func jobList(seed int64) []serviceJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []serviceJob
	add := func(kind string, opts map[string]any) {
		opts["small"], opts["incremental"], opts["seed"] = true, true, 1+rng.Int63n(1<<30)
		body, _ := json.Marshal(map[string]any{"kind": kind, "options": opts}) // maps of scalars always marshal
		jobs = append(jobs, serviceJob{kind: kind, body: body})
	}
	for i := 0; i < 24; i++ {
		add("survey", map[string]any{})
	}
	for i := 0; i < 8; i++ {
		add("workload", map[string]any{"workload": "update-storm", "duration_seconds": 150})
	}
	for i := 0; i < 8; i++ {
		re := fmt.Sprintf("catchment:re=%.2f", 0.3+0.4*rng.Float64())
		add("optimize", map[string]any{"objective": re, "budget": 96, "strategy": []string{"hillclimb", "evolve"}[i%2]})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// daemon is a running resurveyd.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration
}

// startDaemon starts resurveyd on a fresh data dir and waits for
// /healthz to report ok; the wait is the set-up time.
func startDaemon(ctx context.Context, dataDir string) (*daemon, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := command(ctx, "resurveyd", "-addr", addr, "-data-dir", dataDir)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	for time.Since(t0) < 20*time.Second {
		if resp, err := http.Get(d.base + "/healthz"); err == nil {
			var h struct{ Status string }
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.Status == "ok" {
				d.setup = time.Since(t0)
				return d, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	return nil, fmt.Errorf("resurveyd on %s not healthy after 20s", addr)
}

// stop drains the daemon with SIGTERM, waits for it, and returns its
// CPU time and peak RSS.
func (d *daemon) stop() (cpu time.Duration, rssMB float64, err error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	err = d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		rssMB = float64(ru.Maxrss) / 1024
	}
	return cpu, rssMB, err
}

// jobRun is one job as a client saw it.
type jobRun struct {
	kind                     string
	state                    string
	output                   []byte
	submit, firstEvent, done time.Duration
	outputMS                 float64
	roundGaps                []float64
	err                      error
}

// runJob submits one job, follows its event stream to the terminal
// state and fetches its output.
func (d *daemon) runJob(ctx context.Context, j serviceJob) jobRun {
	r := jobRun{kind: j.kind}
	t0 := time.Now()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/jobs", bytes.NewReader(j.body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	var st struct{ ID, State, Error string }
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	r.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		r.err = fmt.Errorf("submit: HTTP %d (%v); shed or rejected", resp.StatusCode, err)
		return r
	}

	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+st.ID+"/events", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		r.err = err
		return r
	}
	var lastRound time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		if r.firstEvent == 0 {
			r.firstEvent = now.Sub(t0)
		}
		var ev struct{ Type, State string }
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			r.err = fmt.Errorf("event %q: %v", data, err)
			break
		}
		switch ev.Type {
		case "round":
			if !lastRound.IsZero() {
				r.roundGaps = append(r.roundGaps, float64(now.Sub(lastRound))/float64(time.Millisecond))
			}
			lastRound = now
		case "state":
			r.state = ev.State
			if ev.State == "done" || ev.State == "failed" || ev.State == "cancelled" {
				r.done = now.Sub(t0)
			}
		}
	}
	resp.Body.Close()
	if r.err != nil || r.done == 0 {
		if r.err == nil {
			r.err = fmt.Errorf("event stream ended in state %q", r.state)
		}
		return r
	}

	o0 := time.Now()
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+st.ID+"/output", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		r.err = err
		return r
	}
	r.output, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.outputMS = msSince(o0)
	if err != nil || (r.state == "done" && resp.StatusCode != http.StatusOK) {
		r.err = fmt.Errorf("output: HTTP %d (%v)", resp.StatusCode, err)
	}
	return r
}

// promValue reads one unlabelled sample from a Prometheus exposition.
func promValue(expo []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

// runService starts resurveyd (timing serviceSetups starts) and drives
// the generated job list through it from serviceClients closed-loop
// clients, in whole passes over the list, until a pass ends after the
// run's seconds.
func runService(ctx context.Context, c config, o *outcome) {
	root := filepath.Join(workDir, fmt.Sprintf("service-%d", os.Getpid()))
	defer os.RemoveAll(root)
	var setups []float64
	var d *daemon
	for i := 0; i < serviceSetups; i++ {
		p := o.start("resurveyd start")
		var err error
		d, err = startDaemon(ctx, filepath.Join(root, fmt.Sprintf("data-%d", i)))
		if err != nil {
			o.fail(p, "%v", err)
			return
		}
		setups = append(setups, d.setup.Seconds())
		o.add("setup_s", d.setup.Seconds())
		if i < serviceSetups-1 {
			// A set-up-only daemon holds no jobs, so it is killed: a
			// SIGTERM this early can beat resurveyd's signal handler,
			// which it installs after /healthz already answers.
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
	}
	dataDir := filepath.Join(root, fmt.Sprintf("data-%d", serviceSetups-1))

	jobs := jobList(c.seed)
	var (
		mu      sync.Mutex
		next    int
		runs    []jobRun
		outputs = map[int][]byte{}
		lastEnd time.Time
	)
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	loopStart := time.Now()
	stopSampling := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- sampleRSS(d.cmd.Process.Pid, stopSampling) }()
	var clients sync.WaitGroup
	for k := 0; k < serviceClients; k++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for ctx.Err() == nil {
				// Dispatch stops only at a pass boundary, so every run
				// executes the same mix: whole passes over the list.
				mu.Lock()
				i := next % len(jobs)
				if i == 0 && !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				r := d.runJob(ctx, jobs[i])
				mu.Lock()
				if r.err == nil {
					r.err = checkJob(r.state, r.output, outputs[i])
					if r.err == nil && outputs[i] == nil {
						outputs[i] = r.output
					}
				}
				runs = append(runs, r)
				lastEnd = time.Now()
				mu.Unlock()
			}
		}()
	}
	clients.Wait()
	close(stopSampling)
	rssSamples := <-rssDone
	if len(rssSamples) == 0 {
		o.fail(nil, "no RSS samples of resurveyd")
	}
	rssP90 := p90(rssSamples)
	loopWall := lastEnd.Sub(loopStart)

	var expo []byte
	if resp, err := http.Get(d.base + "/metrics"); err == nil {
		expo, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	grown := dirBytes(dataDir)
	cpu, maxRSS, err := d.stop()
	if err != nil {
		o.fail(nil, "resurveyd stop: %v", err)
	}

	var lat, submits, firsts, gaps, outs []float64
	perKind := map[string][]float64{}
	completed, surveys := 0, 0
	for _, r := range runs {
		p := o.start(r.kind + " job")
		if r.err != nil {
			o.fail(p, "%v", r.err)
			continue
		}
		completed++
		ms := float64(r.done) / float64(time.Millisecond)
		lat = append(lat, ms)
		perKind[r.kind] = append(perKind[r.kind], ms)
		submits = append(submits, float64(r.submit)/float64(time.Millisecond))
		firsts = append(firsts, float64(r.firstEvent)/float64(time.Millisecond))
		gaps = append(gaps, r.roundGaps...)
		outs = append(outs, r.outputMS)
		if r.kind == "survey" {
			surveys++
		}
		o.add("job_ms", ms)
	}
	if completed == 0 {
		o.fail(nil, "no job completed")
		return
	}
	sum := stats.Summarize(lat)
	jobP90 := p90(lat)
	o.add("job_p50_ms", sum.Median)
	o.add("job_p90_ms", jobP90)
	o.add("jobs_per_s", float64(completed)/loopWall.Seconds())
	o.add("max_rss_mb", maxRSS)
	o.add("peak_rss_mb", rssP90)

	o.e2e["setup_s"] = median(setups)
	o.e2e["op_p50_ms"] = sum.Median
	o.e2e["op_cpu_s"] = cpu.Seconds() / float64(completed)
	o.e2e["items_per_s"] = float64(completed) / loopWall.Seconds()
	o.e2e["peak_rss_mb"] = rssP90

	o.layers["serve.submit_ms"] = median(submits)
	o.layers["serve.first_event_ms"] = median(firsts)
	o.layers["serve.round_gap_ms"] = median(gaps)
	o.layers["serve.output_ms"] = median(outs)
	o.layers["serve.survey_job_ms"] = median(perKind["survey"])
	o.layers["serve.workload_job_ms"] = median(perKind["workload"])
	o.layers["serve.optimize_job_ms"] = median(perKind["optimize"])
	o.layers["serve.job_p90_ms"] = jobP90
	if surveys > 0 {
		o.layers["serve.bytes_per_survey_job"] = grown / float64(surveys)
	}
	o.layers["serve.checkpoints"] = promValue(expo, "serve_checkpoints_total")
	o.layers["serve.shed"] = promValue(expo, "serve_jobs_shed_total")
	o.layers["serve.daemon_cpu_s"] = cpu.Seconds()
}
