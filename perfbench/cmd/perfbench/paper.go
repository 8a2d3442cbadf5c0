package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// setupMarker is the resurvey stdout line that ends set-up: the
// ecosystem is built and probe targets are selected.
const setupMarker = "running SURF and Internet2 experiments..."

// paperSetups is how many set-ups a paper-survey run times: the full
// run's own plus set-up-only starts killed at the marker.
const paperSetups = 5

var probedRE = regexp.MustCompile(`(\d+) probed`)

// runPaper runs the user's real command, `resurvey -seed S` at paper
// scale with telemetry off, as a child process: full runs while the
// time allows (at least one), then set-up-only starts. A traced run
// adds one surveydriver run, the traced twin of the same command.
func runPaper(ctx context.Context, c config, o *outcome) {
	args := []string{"-seed", strconv.FormatInt(c.seed, 10)}
	var ref []byte
	var walls, cpus, rss, setups []float64
	probed := 0.0
	t0 := time.Now()
	for len(walls) == 0 || time.Since(t0).Seconds()+walls[len(walls)-1]/1e3 <= c.seconds {
		p := o.start("resurvey")
		r := runChild(command(ctx, "resurvey", args...), setupMarker, false)
		if r.err != nil {
			o.fail(p, "resurvey: %v", r.err)
			return
		}
		if err := table1Accounts(r.stdout); err != nil {
			o.fail(p, "%v", err)
		}
		if ref == nil {
			ref = r.stdout
			key := fmt.Sprintf("paper-survey-seed%d-%s", c.seed, c.digest)
			if err := remembered(filepath.Join(workDir, "state"), key, r.stdout); err != nil {
				o.fail(p, "%v", err)
			}
		} else if err := sameBytes("resurvey stdout", ref, r.stdout); err != nil {
			o.fail(p, "%v", err)
		}
		if m := probedRE.FindSubmatch(r.stdout); m != nil {
			probed, _ = strconv.ParseFloat(string(m[1]), 64)
		}
		walls = append(walls, float64(r.wall)/float64(time.Millisecond))
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
		setups = append(setups, r.marker.Seconds())
		o.add("survey_wall_s", r.wall.Seconds())
		o.add("survey_cpu_s", r.cpu.Seconds())
		o.add("peak_rss_mb", r.rssMB)
		o.add("max_rss_mb", r.maxMB)
		if ctx.Err() != nil {
			return
		}
	}
	for len(setups) < paperSetups {
		p := o.start("resurvey set-up")
		r := runChild(command(ctx, "resurvey", args...), setupMarker, true)
		if r.err != nil {
			o.fail(p, "resurvey set-up: %v", r.err)
			return
		}
		if err := sameBytes("resurvey set-up stdout", ref[:min(len(r.stdout), len(ref))], r.stdout); err != nil {
			o.fail(p, "%v", err)
		}
		setups = append(setups, r.marker.Seconds())
	}
	for _, s := range setups {
		o.add("setup_s", s)
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["op_p50_ms"] = median(walls)
	o.e2e["op_cpu_s"] = median(cpus)
	o.e2e["items_per_s"] = probed / (median(walls) / 1e3)
	o.e2e["peak_rss_mb"] = median(rss)
	if c.trace {
		tracePaper(ctx, c, o, ref, median(walls))
	}
}

// surveyTrace is surveydriver's report.
type surveyTrace struct {
	Layers      map[string]float64 `json:"layers"`
	Leaves      []string           `json:"leaves"`
	Tables      map[string]string  `json:"tables"`
	Unaccounted []string           `json:"unaccounted"`
}

// tracePaper runs the traced twin and checks it against the untraced
// stdout: its Table 1-4 text must appear there verbatim (the drift
// guard), every probed prefix must be accounted for, and its leaf
// layers must cover at least 95% of its wall.
func tracePaper(ctx context.Context, c config, o *outcome, stdout []byte, untracedMS float64) {
	p := o.start("surveydriver")
	r := runChild(command(ctx, "surveydriver", "-seed", strconv.FormatInt(c.seed, 10)), "", false)
	if r.err != nil {
		o.fail(p, "surveydriver: %v", r.err)
		return
	}
	var tr surveyTrace
	if err := json.Unmarshal(r.stdout, &tr); err != nil {
		o.fail(p, "surveydriver output: %v", err)
		return
	}
	for _, u := range tr.Unaccounted {
		o.fail(p, "%s", u)
	}
	for _, name := range []string{"table1_surf", "table1_internet2", "table2", "table3", "table4"} {
		text := tr.Tables[name]
		if text == "" || !bytes.Contains(stdout, []byte(text)) {
			o.fail(p, "drift: traced %s is not in resurvey stdout", name)
		}
	}
	for name, v := range tr.Layers {
		o.layers[name] = v
	}
	tracedMS := float64(r.wall) / float64(time.Millisecond)
	leaf := 0.0
	for _, name := range tr.Leaves {
		leaf += tr.Layers[name]
	}
	o.layers["trace.coverage_frac"] = leaf / tracedMS
	o.layers["trace.overhead_frac"] = tracedMS/untracedMS - 1
	if cov := o.layers["trace.coverage_frac"]; cov < 0.95 {
		o.fail(p, "leaf layers cover %.3f of the traced wall, want >= 0.95", cov)
	}
}
