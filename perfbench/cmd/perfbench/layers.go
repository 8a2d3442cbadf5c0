package main

import "strings"

// metric is one reported metric. For a per-layer metric, workload is
// where it is measured (it reads 0 on the others) and moves names the
// end-to-end metric it should move there; BENCHMARK.json lists the
// same names, units and directions (TestBenchmarkJSONMatches).
type metric struct {
	name, unit, better string
	workload, moves    string
}

// e2eMetrics is the end-to-end set every workload reports, each name
// carrying the workload's own figure (README.md has the full table):
// op_p50_ms is survey_wall_s on paper-survey, one 80K-prefix feed on
// internet-feed and job_p50_ms on service-jobs; items_per_s is probed
// prefixes, feed_prefixes_per_s and jobs_per_s.
var e2eMetrics = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_cpu_s", unit: "s", better: "lower"},
	{name: "items_per_s", unit: "1/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

const (
	paperWall = "op_p50_ms (survey_wall_s) and op_cpu_s (survey_cpu_s) on paper-survey"
	probeMove = "op_p50_ms (survey_wall_s) on paper-survey; op_p50_ms (job_p50_ms) and items_per_s (jobs_per_s) on service-jobs"
	bgpStay   = "nothing beyond bound on paper-survey (engine is <10% of it)"
	feedMove  = "items_per_s (feed_prefixes_per_s), op_p50_ms and peak_rss_mb on internet-feed"
	jobMove   = "op_p50_ms (job_p50_ms) and items_per_s (jobs_per_s) on service-jobs"
)

// layerMetrics is the per-layer set a traced run reports, in the order
// the issue's layer map gives.
var layerMetrics = []metric{
	{name: "core.table1_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.provider_breakdown_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.mixed_ratio_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.table2_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.table3_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.lg_validate_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.validate_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.origin_views_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.table4_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.predictors_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.ripe_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.fig3_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.fig7_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.fig8_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.latency_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.ablate_rounds_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.ablate_targets_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.ablate_gap_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "asrel.infer_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "irr.compare_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},
	{name: "core.analysis_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: paperWall},

	{name: "core.build_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: probeMove},
	{name: "core.experiment_surf_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: probeMove},
	{name: "core.experiment_i2_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: probeMove},
	{name: "core.classify_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: probeMove},
	{name: "probe.round_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: probeMove},
	{name: "probe.total_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: probeMove},
	{name: "probe.sent", unit: "count", better: "lower", workload: "paper-survey", moves: probeMove},
	{name: "probe.response_ratio", unit: "ratio", better: "higher", workload: "paper-survey", moves: probeMove},

	{name: "bgp.converge_ms", unit: "ms", better: "lower", workload: "paper-survey", moves: bgpStay},
	{name: "bgp.decision_runs", unit: "count", better: "lower", workload: "paper-survey", moves: bgpStay},
	{name: "bgp.best_change_ratio", unit: "ratio", better: "higher", workload: "paper-survey", moves: bgpStay},

	{name: "topo.build_ms", unit: "ms", better: "lower", workload: "internet-feed", moves: "setup_s on internet-feed"},
	{name: "bgp.initial_converge_ms", unit: "ms", better: "lower", workload: "internet-feed", moves: "setup_s on internet-feed"},
	{name: "bgp.originate_ms", unit: "ms", better: "lower", workload: "internet-feed", moves: feedMove},
	{name: "bgp.feed_converge_ms", unit: "ms", better: "lower", workload: "internet-feed", moves: feedMove},
	{name: "bgp.feed_decision_runs", unit: "count", better: "lower", workload: "internet-feed", moves: feedMove},
	{name: "bgp.decisions_per_s", unit: "1/s", better: "higher", workload: "internet-feed", moves: feedMove},
	{name: "bgp.rib_routes", unit: "count", better: "lower", workload: "internet-feed", moves: "peak_rss_mb on internet-feed"},
	{name: "bgp.bytes_per_route", unit: "B/route", better: "lower", workload: "internet-feed", moves: "peak_rss_mb on internet-feed"},
	{name: "bgp.heap_after_feed_mb", unit: "MB", better: "lower", workload: "internet-feed", moves: "peak_rss_mb on internet-feed"},

	{name: "serve.submit_ms", unit: "ms", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.first_event_ms", unit: "ms", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.round_gap_ms", unit: "ms", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.output_ms", unit: "ms", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.survey_job_ms", unit: "ms", better: "lower", workload: "service-jobs", moves: jobMove + " (durability changes move this one)"},
	{name: "serve.workload_job_ms", unit: "ms", better: "lower", workload: "service-jobs", moves: jobMove + " (flat under durability changes)"},
	{name: "serve.optimize_job_ms", unit: "ms", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.job_p90_ms", unit: "ms", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.bytes_per_survey_job", unit: "B", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.checkpoints", unit: "count", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.shed", unit: "count", better: "lower", workload: "service-jobs", moves: jobMove},
	{name: "serve.daemon_cpu_s", unit: "s", better: "lower", workload: "service-jobs", moves: "op_cpu_s on service-jobs"},

	{name: "trace.coverage_frac", unit: "ratio", better: "higher", workload: "paper-survey", moves: "none: leaf layer time over traced wall (must be >= 0.95)"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", workload: "paper-survey", moves: "none: traced wall over untraced survey_wall_s, minus 1"},
}

// unitOf gives the unit of an issue-level report metric by its suffix.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_per_s", "1/s"}, {"_ms", "ms"}, {"_s", "s"}, {"_mb", "MB"}, {"_frac", "ratio"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}
