package main

import (
	"context"
	"encoding/json"
	"strconv"
	"time"
)

// feedReps repetitions (fresh processes) are the least an internet-feed
// run makes, so each run repeats its seed.
const feedReps = 2

// runFeed runs feeddriver on the internet tier: build and converge,
// then feed the sample into the first collector, at least feedReps
// times and while the time allows.
func runFeed(ctx context.Context, c config, o *outcome) {
	args := []string{"-seed", strconv.FormatInt(c.seed, 10)}
	if c.trace {
		args = append(args, "-trace")
	}
	var ref *feedResult
	var setups, feeds, cpus, rates, rss []float64
	lay := map[string][]float64{}
	t0 := time.Now()
	var last time.Duration
	for len(setups) < feedReps || time.Since(t0)+last <= time.Duration(c.seconds*float64(time.Second)) {
		p := o.start("feeddriver")
		r := runChild(command(ctx, "feeddriver", args...), "", false)
		if r.err != nil {
			o.fail(p, "feeddriver: %v", r.err)
			return
		}
		var fr feedResult
		if err := json.Unmarshal(r.stdout, &fr); err != nil {
			o.fail(p, "feeddriver output: %v", err)
			return
		}
		for _, f := range checkFeed(&fr, ref) {
			o.fail(p, "%s", f)
		}
		if ref == nil {
			ref = &fr
		}
		last = r.wall
		feedMS := fr.OriginateMS + fr.FeedConvergeMS
		setup := (fr.BuildMS + fr.InitialConvergeMS) / 1e3
		rate := float64(fr.Sampled) / (feedMS / 1e3)
		setups = append(setups, setup)
		feeds = append(feeds, feedMS)
		cpus = append(cpus, fr.FeedCPUMS/1e3)
		rates = append(rates, rate)
		rss = append(rss, r.rssMB)
		o.add("setup_s", setup)
		o.add("feed_prefixes_per_s", rate)
		o.add("peak_rss_mb", r.rssMB)
		o.add("max_rss_mb", r.maxMB)

		lay["topo.build_ms"] = append(lay["topo.build_ms"], fr.BuildMS)
		lay["bgp.initial_converge_ms"] = append(lay["bgp.initial_converge_ms"], fr.InitialConvergeMS)
		lay["bgp.originate_ms"] = append(lay["bgp.originate_ms"], fr.OriginateMS)
		lay["bgp.feed_converge_ms"] = append(lay["bgp.feed_converge_ms"], fr.FeedConvergeMS)
		lay["bgp.feed_decision_runs"] = append(lay["bgp.feed_decision_runs"], float64(fr.FeedDecisionRuns))
		lay["bgp.decisions_per_s"] = append(lay["bgp.decisions_per_s"], float64(fr.FeedDecisionRuns)/(feedMS/1e3))
		lay["bgp.rib_routes"] = append(lay["bgp.rib_routes"], float64(fr.RIBRoutes))
		lay["bgp.bytes_per_route"] = append(lay["bgp.bytes_per_route"], fr.BytesPerRoute)
		lay["bgp.heap_after_feed_mb"] = append(lay["bgp.heap_after_feed_mb"], fr.HeapAfterFeedMB)
		if ctx.Err() != nil {
			return
		}
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["op_p50_ms"] = median(feeds)
	o.e2e["op_cpu_s"] = median(cpus)
	o.e2e["items_per_s"] = median(rates)
	o.e2e["peak_rss_mb"] = median(rss)
	for name, v := range lay {
		o.layers[name] = median(v)
	}
}
