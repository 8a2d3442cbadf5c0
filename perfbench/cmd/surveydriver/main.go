// Command surveydriver is the traced twin of `resurvey -seed N`: it
// makes the same calls into core, probe, asrel and irr, in the same
// order and with the same arguments, renders the same report into a
// buffer, and times each call from the outside. The engine's own
// telemetry registry is enabled (core.WithMetrics) only to read the
// phases it already records: experiment, config, round and classify
// spans, and the bgp and probe counters.
//
// It prints one JSON object: per-layer metrics, the Table 1-4 text for
// the drift guard, and the Table 1 accounting of every probed prefix.
//
// Usage:
//
//	surveydriver -seed N
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/irr"
	"repro/internal/netutil"
	"repro/internal/report"
	"repro/internal/telemetry"

	"repro/perfbench/stats"
)

// output is the driver's report to the benchmark.
type output struct {
	// Layers maps per-layer metric names to values (ms unless the
	// name says otherwise).
	Layers map[string]float64 `json:"layers"`
	// Leaves lists the layer metrics that partition the run: their sum
	// over the traced wall is trace.coverage_frac.
	Leaves []string `json:"leaves"`
	// Tables holds the rendered Table 1-4 text, keyed by table.
	Tables map[string]string `json:"tables"`
	// Unaccounted lists each experiment whose Table 1 (with its
	// unresponsive and insufficient-data prefixes) does not account
	// for every probed prefix.
	Unaccounted []string `json:"unaccounted"`
}

// tracer times calls into the program's layers.
type tracer struct {
	layers map[string]float64
	leaves []string
}

// time runs f and records its wall time as a leaf layer metric.
func (t *tracer) time(name string, f func()) {
	t0 := time.Now()
	f()
	t.layers[name] += float64(time.Since(t0)) / float64(time.Millisecond)
	t.leaves = append(t.leaves, name)
}

func main() {
	seed := flag.Int64("seed", 1, "generator seed, as resurvey -seed")
	flag.Parse()
	out, err := run(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveydriver:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "surveydriver:", err)
		os.Exit(1)
	}
}

func run(seed int64) (*output, error) {
	// The report renders into a buffer, as resurvey's does into stdout,
	// so formatting costs the same; the drift guard reads its tables.
	var w bytes.Buffer
	reg := telemetry.New()
	pl := cliconf.Config{Seed: seed, Incremental: true}.Pipeline(reg)
	t := &tracer{layers: map[string]float64{}}
	out := &output{Tables: map[string]string{}}

	var s *core.Survey
	t.time("core.build_ms", func() {
		fmt.Fprintf(&w, "building ecosystem (seed %d)...\n", seed)
		s = pl.NewSurvey()
		st := s.Sel.Stats
		fmt.Fprintf(&w, "  %d R&E-connected origin ASes; %d prefixes announced, %d excluded as entirely covered (§3.2), %d probed\n",
			countASes(s), len(s.Eco.Prefixes), len(s.Eco.Prefixes)-st.Prefixes, st.Prefixes)
		fmt.Fprintf(&w, "  %d with ISI seeds (%s), %d responsive (%s), %d with three targets (%s)\n\n",
			st.WithISISeed, report.Pct(st.WithISISeed, st.Prefixes),
			st.Responsive, report.Pct(st.Responsive, st.Prefixes),
			st.WithMaxTargets, report.Pct(st.WithMaxTargets, st.Responsive))
	})

	// The two experiments run inside one call; their split comes from
	// the experiment spans the registry records.
	fmt.Fprintln(&w, "running SURF and Internet2 experiments...")
	s.RunBoth()
	fmt.Fprintln(&w)
	experimentLayers(t.layers, reg)
	t.leaves = append(t.leaves, "core.experiment_surf_ms", "core.experiment_i2_ms")

	analysisStart := time.Now()
	var surfSum, juneSum *core.SurveySummary
	t.time("core.table1_ms", func() {
		surfSum = core.Summarize(s.Eco, s.SURF)
		juneSum = core.Summarize(s.Eco, s.Internet2)
		out.Tables["table1_surf"] = surfSum.Table().String()
		out.Tables["table1_internet2"] = juneSum.Table().String()
		fmt.Fprintln(&w, surfSum.Table())
		fmt.Fprintln(&w, juneSum.Table())
		fmt.Fprintf(&w, "ASes in multiple Table 1 categories: %d (SURF), %d (Internet2) — why the AS columns exceed 100%%\n\n",
			surfSum.MultiCategoryASes, juneSum.MultiCategoryASes)
	})
	t.time("core.provider_breakdown_ms", func() {
		fmt.Fprintln(&w, core.ProviderBreakdownTable(core.BreakdownByProvider(s.Eco, s.Internet2), 10))
	})
	t.time("core.mixed_ratio_ms", func() {
		re, comm := core.MixedRatio(s.Internet2)
		if comm > 0 {
			fmt.Fprintf(&w, "mixed-prefix response ratio R&E:commodity = %d:%d (~%.1f:1; paper ~2:1)\n\n", re, comm, float64(re)/float64(comm))
		}
	})
	t.time("core.table2_ms", func() {
		cmp := core.Compare(s.Eco, s.SURF, s.Internet2)
		out.Tables["table2"] = cmp.Table().String()
		fmt.Fprintln(&w, cmp.Table())
		fmt.Fprintf(&w, "differences attributable to NIKS-style transit: %d of %d\n\n", cmp.DifferencesViaNIKS, cmp.Different)
	})
	t.time("core.table3_ms", func() {
		cong := core.Congruence(s.Eco, s.Internet2, 11537, 396955)
		out.Tables["table3"] = cong.Table().String()
		fmt.Fprintln(&w, cong.Table())
		fmt.Fprintf(&w, "incongruent ASes explained by VRF-split exports: %d\n\n", cong.VRFExplained)
	})
	t.time("core.lg_validate_ms", func() {
		lgv := core.ValidateAgainstLookingGlasses(s.Eco, s.Internet2, 11537, 15)
		fmt.Fprintf(&w, "looking-glass corroboration: %d agree, %d disagree, %d indeterminate (of %d glasses sampled)\n",
			lgv.Agreements, lgv.Disagreements, lgv.Indeterminate, len(lgv.Rows))
	})
	t.time("core.validate_ms", func() {
		for _, res := range []*core.Result{s.SURF, s.Internet2} {
			v := core.Validate(s.Eco, res)
			fmt.Fprintf(&w, "%s — inference vs installed policy: accuracy %.1f%% over %d prefixes\n",
				res.Name, 100*v.Accuracy(), v.Evaluated)
		}
		fmt.Fprintln(&w)
	})
	var views map[asn.AS]*core.OriginView
	t.time("core.origin_views_ms", func() {
		fmt.Fprintln(&w, "solving converged member-prefix routing for collector and RIPE views...")
		views = core.ComputeOriginViews(s.Eco)
	})
	t.time("core.table4_ms", func() {
		pa := core.AnalyzePrepending(s.Eco, s.Internet2, views)
		out.Tables["table4"] = pa.Table().String()
		fmt.Fprintln(&w, pa.Table())
	})
	var reg2 *irr.Registry
	t.time("core.predictors_ms", func() {
		reg2 = irr.FromEcosystem(s.Eco, irr.DefaultGenConfig())
		pe := core.EvaluatePredictors(s.Eco, s.SURF, s.Internet2, views, reg2)
		fmt.Fprintln(&w, pe.Table())
	})
	t.time("core.ripe_ms", func() {
		ra := core.AnalyzeRIPE(s.Eco, views, core.BuildGeoDB(s.Eco))
		fmt.Fprintf(&w, "RIPE (equal localpref) reached %s of R&E prefixes and %s of ASes over R&E routes (paper: 64.0%% / 63.9%%)\n",
			report.Pct(ra.PrefixesViaRE, ra.Prefixes), report.Pct(ra.ASesViaRE, ra.ASes))
		eu, us := ra.Series()
		fmt.Fprintln(&w, eu)
		fmt.Fprintln(&w, us)
		fmt.Fprintln(&w)
	})
	t.time("core.fig3_ms", func() {
		fmt.Fprintln(&w, core.BuildChurnTimeline(s.SURF, 1125))
		fmt.Fprintln(&w, core.BuildChurnTimeline(s.Internet2, 11537))
	})
	t.time("core.fig7_ms", func() {
		fmt.Fprintln(&w, core.Figure7Table())
		sm := core.EvaluateSwitchModel(s.Eco, s.Internet2)
		fmt.Fprintf(&w, "Appendix A model vs data: %.1f%% of %d switch timings predicted exactly (%d off-by-one, %d other)\n\n",
			100*sm.ExactRate(), sm.Total(), sm.OffByOne, sm.Other)
	})
	t.time("core.fig8_ms", func() {
		sw := core.SwitchPrefixes(s.SURF, s.Internet2)
		fmt.Fprintf(&w, "Figure 8: %d prefixes switched to R&E in both experiments\n", len(sw))
		for _, res := range []*core.Result{s.SURF, s.Internet2} {
			cdf := core.BuildSwitchCDF(s.Eco, res, sw)
			p, n := cdf.Series()
			fmt.Fprintln(&w, p)
			fmt.Fprintln(&w, n)
		}
	})
	t.time("core.latency_ms", func() {
		lat := core.AnalyzeLatency(s.Internet2)
		if len(lat) > 0 && lat[0].NCommodity > 0 && lat[0].NRE > 0 {
			fmt.Fprintf(&w, "latency at config %s: median R&E %.1f ms vs commodity %.1f ms (detour penalty %.1f ms, synthetic per-hop RTTs)\n\n",
				lat[0].Config, lat[0].MedianRE, lat[0].MedianCommodity, lat[0].DetourPenalty())
		}
	})
	t.time("core.ablate_rounds_ms", func() {
		fmt.Fprintln(&w)
		fmt.Fprintln(&w, core.RoundsAblationTable(core.AblateRounds(s.Internet2, core.StandardSubsets())))
	})
	t.time("core.ablate_targets_ms", func() {
		fmt.Fprintln(&w, core.TargetsAblationTable(core.AblateTargets(s.Internet2, []int{1, 2, 3})))
	})
	t.time("core.ablate_gap_ms", func() {
		fmt.Fprintln(&w, core.GapAblationTable(core.AblateRoundGap([]int{600, 1800, 3600}, core.SmallSurveyOptions())))
	})
	t.time("asrel.infer_ms", func() {
		relAcc, relEdges, relPaths := relationshipAccuracy(s, views)
		fmt.Fprintf(&w, "AS-relationship inference (Gao-style) from collector paths: %.1f%% of %d adjacent edges correct (%d paths)\n",
			100*relAcc, relEdges, relPaths)
	})
	var covered bool
	t.time("irr.compare_ms", func() {
		irrStats := irr.CompareDocumented(s.Eco, reg2)
		fmt.Fprintf(&w, "IRR aut-num conformance with deployed policy: %.1f%% of %d documented members (%d undocumented; literature ~83%%)\n",
			100*irrStats.ConformanceRate(), irrStats.Documented, irrStats.Undocumented)
		covered = reg2.CoversOrigin(s.Eco.MeasPrefix, 11537) && reg2.CoversOrigin(s.Eco.MeasPrefix, 396955)
	})
	t.layers["core.analysis_ms"] = float64(time.Since(analysisStart)) / float64(time.Millisecond)
	for i, res := range []*core.Result{s.SURF, s.Internet2} {
		if err := accounts(res, []*core.SurveySummary{surfSum, juneSum}[i]); err != nil {
			out.Unaccounted = append(out.Unaccounted, err.Error())
		}
	}
	if !covered {
		return nil, fmt.Errorf("measurement prefix not covered by IRR route objects")
	}
	out.Layers, out.Leaves = t.layers, t.leaves
	return out, nil
}

// experimentLayers derives the experiment, probe and bgp layer metrics
// from the spans and counters the registry recorded during RunBoth.
func experimentLayers(m map[string]float64, reg *telemetry.Registry) {
	var rounds []float64
	var expStart float64
	firstConfig := true
	for _, ph := range reg.Phases() {
		parts := strings.Split(ph.Path, "/")
		leaf := parts[len(parts)-1]
		switch {
		case len(parts) == 1 && strings.HasPrefix(leaf, "experiment:SURF"):
			m["core.experiment_surf_ms"] += ph.DurationMS
			expStart, firstConfig = ph.StartMS, true
		case len(parts) == 1 && strings.HasPrefix(leaf, "experiment:Internet2"):
			m["core.experiment_i2_ms"] += ph.DurationMS
			expStart, firstConfig = ph.StartMS, true
		case len(parts) == 2 && strings.HasPrefix(leaf, "config:"):
			// Spans are ordered by start, so an experiment's first
			// config follows it: the gap is the initial convergence.
			if firstConfig {
				m["bgp.converge_ms"] += ph.StartMS - expStart
				firstConfig = false
			}
			m["bgp.converge_ms"] += ph.DurationMS
		case len(parts) == 3 && leaf == "round":
			m["bgp.converge_ms"] -= ph.DurationMS
			m["probe.total_ms"] += ph.DurationMS
			rounds = append(rounds, ph.DurationMS)
		case len(parts) == 2 && leaf == "classify":
			m["core.classify_ms"] += ph.DurationMS
		}
	}
	m["probe.round_ms"] = stats.Summarize(rounds).Median
	sent := reg.Counter("probe_probes_sent_total").Value()
	resp := reg.Counter(telemetry.Label("probe_responses_total", "vlan", "re")).Value() +
		reg.Counter(telemetry.Label("probe_responses_total", "vlan", "commodity")).Value()
	m["probe.sent"] = float64(sent)
	if sent > 0 {
		m["probe.response_ratio"] = float64(resp) / float64(sent)
	}
	runs := reg.Counter("bgp_decision_runs_total").Value()
	m["bgp.decision_runs"] = float64(runs)
	if runs > 0 {
		m["bgp.best_change_ratio"] = float64(reg.Counter("bgp_best_path_changes_total").Value()) / float64(runs)
	}
}

// accounts checks that an experiment's Table 1, together with its
// unresponsive and insufficient-data prefixes, covers every prefix the
// rounds probed.
func accounts(res *core.Result, sum *core.SurveySummary) error {
	probed := map[netutil.Prefix]bool{}
	for _, rd := range res.Rounds {
		for _, rec := range rd.Records {
			probed[rec.Prefix] = true
		}
	}
	rows := 0
	for _, n := range sum.PrefixCount {
		rows += n
	}
	if got := sum.TotalPrefixes + sum.Unresponsive + sum.InsufficientData; rows != sum.TotalPrefixes || got != len(probed) {
		return fmt.Errorf("%s: Table 1 rows %d, total %d, unresponsive %d, insufficient %d; %d prefixes probed",
			res.Name, rows, sum.TotalPrefixes, sum.Unresponsive, sum.InsufficientData, len(probed))
	}
	return nil
}

// countASes mirrors cmd/resurvey's header count.
func countASes(s *core.Survey) int {
	set := map[asn.AS]bool{}
	for _, pi := range s.Eco.Prefixes {
		set[pi.Origin] = true
	}
	return len(set)
}

// relationshipAccuracy mirrors cmd/resurvey's Gao-style inference over
// every origin's collector paths, scored against the session classes.
func relationshipAccuracy(s *core.Survey, views map[asn.AS]*core.OriginView) (acc float64, evaluated, nPaths int) {
	eco := s.Eco
	var paths []asn.Path
	origins := make([]asn.AS, 0, len(views))
	for origin := range views {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, origin := range origins {
		paths = append(paths, views[origin].CollectorPaths...)
	}
	inf := asrel.NewInferrer()
	for _, p := range paths {
		inf.AddPath(p)
	}
	res := inf.Infer(paths)
	correct := 0
	for _, ie := range res.Edges() {
		a, b := eco.AS(ie.A), eco.AS(ie.B)
		if a == nil || b == nil {
			continue
		}
		pcAtA := eco.Net.Speaker(a.Router).Peer(b.Router)
		if pcAtA == nil {
			continue
		}
		var truth asrel.Rel
		switch pcAtA.ClassifyAs {
		case bgp.ClassCustomer:
			truth = asrel.RelProviderOf
		case bgp.ClassProvider:
			truth = asrel.RelCustomerOf
		case bgp.ClassPeer, bgp.ClassREPeer:
			truth = asrel.RelPeer
		default:
			continue
		}
		evaluated++
		if ie.Rel == truth {
			correct++
		}
	}
	if evaluated > 0 {
		acc = float64(correct) / float64(evaluated)
	}
	return acc, evaluated, len(paths)
}
