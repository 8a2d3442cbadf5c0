// Command perfbench is the repository benchmark. It runs one workload
// from a seed for a given number of seconds, checks every output it
// measures, prints each metric with its unit, median, quartiles, tail
// percentile and sample count, and ends with one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// traced run reports the per-layer set instead (see layers.go).
//
// Usage (from the repository root, after perfbench/run.sh has built
// the binaries into .bench_build/bin):
//
//	perfbench -workload paper-survey|internet-feed|service-jobs -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/perfbench/stats"
)

// binDir holds the binaries run.sh builds; workDir is the scratch
// space (data dirs, determinism digests). Both are inside the checkout.
var (
	binDir  = filepath.Join(".bench_build", "bin")
	workDir = filepath.Join(".bench_build", "work")
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	digest   string // revision of the code under test (see revision)
}

// op is one measured operation (a child process or a service job) and
// the correctness checks that failed on it.
type op struct {
	name     string
	failures []string
}

// outcome is what a workload run measured.
type outcome struct {
	ops []*op
	// report holds the issue-level metrics by name, as samples.
	report map[string][]float64
	// e2e and layers hold the contract metrics of the final line.
	e2e    map[string]float64
	layers map[string]float64
}

func newOutcome() *outcome {
	return &outcome{report: map[string][]float64{}, e2e: map[string]float64{}, layers: map[string]float64{}}
}

// start records a new operation.
func (o *outcome) start(name string) *op {
	p := &op{name: name}
	o.ops = append(o.ops, p)
	return p
}

// fail records a failed check on p (or on a run-level operation when p
// is nil).
func (o *outcome) fail(p *op, format string, args ...any) {
	if p == nil {
		p = o.start("run")
	}
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) add(name string, v float64) { o.report[name] = append(o.report[name], v) }

func (o *outcome) failed() int {
	n := 0
	for _, p := range o.ops {
		if len(p.failures) > 0 {
			n++
		}
	}
	return n
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config, *outcome){
	"paper-survey":  runPaper,
	"internet-feed": runFeed,
	"service-jobs":  runService,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "paper-survey, internet-feed or service-jobs")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	c.trace = trace == 1
	run, ok := workloads[c.workload]
	if !ok || (trace != 0 && trace != 1) || c.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", c.workload, trace, c.seconds)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	c.digest = revision()
	// Every run must end well inside the 180 s a run may take; an
	// interrupt stops the children too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	for _, kv := range machineContext(c) {
		fmt.Printf("# %s: %s\n", kv[0], kv[1])
	}
	o := newOutcome()
	run(ctx, c, o)
	if ctx.Err() != nil {
		o.fail(nil, "run timed out")
	}
	os.Exit(finish(c, o))
}

// finish prints the metric table and the result line and returns the
// exit code: non-zero when any check failed.
func finish(c config, o *outcome) int {
	failed := o.failed()
	for _, p := range o.ops {
		for _, f := range p.failures {
			fmt.Printf("FAIL %s: %s\n", p.name, f)
		}
	}
	o.add("failed_frac", float64(failed)/float64(max(len(o.ops), 1)))

	names := make([]string, 0, len(o.report))
	for name := range o.report {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d (%d operations)\n", c.workload, c.seed, len(o.ops))
	for _, name := range names {
		fmt.Printf("  %-22s %-6s %s\n", name, unitOf(name), stats.Summarize(o.report[name]))
	}

	metrics := map[string]any{}
	if c.trace {
		for _, m := range layerMetrics {
			v := o.layers[m.name]
			fmt.Printf("  layer %-28s %-6s %-12.6g %s; moves %s\n", m.name, m.unit, v, m.workload, m.moves)
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			metrics[m.name] = map[string]any{"value": o.e2e[m.name], "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": max(len(o.ops), 1),
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if failed > 0 || len(o.ops) == 0 {
		return 1
	}
	return 0
}

// median of samples (0 when there are none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Summarize(v).Median
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
