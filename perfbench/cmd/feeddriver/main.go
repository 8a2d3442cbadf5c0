// Command feeddriver is the internet-feed workload's child process. It
// builds the internet-tier ecosystem (topo.InternetConfig) from a seed,
// converges it, then feeds a seeded sample of member prefixes from a
// vantage speaker into the first collector, the way topo's
// BenchmarkInternetScaleRIB feeds the full table, in batches that each
// run to quiescence. It prints one JSON object with its timings and RIB
// counts on stdout.
//
// Usage:
//
//	feeddriver -seed N [-trace]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// feedPrefixes is the stated input size: far more prefixes than the
// arena's 4096-entry materialisation cache holds, and a twelfth of the
// full table, which takes ~80 s to feed on 2 cores.
const feedPrefixes = 80_000

// feedBatch prefixes are originated before each run to quiescence. A
// feed arrives as a stream; in one 80K burst the transient update queue
// and GC timing, not the RIB, set the peak RSS, whose spread across
// seeds is then about three times wider.
const feedBatch = 10_000

// result is what one feed run reports to the benchmark.
type result struct {
	BuildMS           float64 `json:"build_ms"`
	InitialConvergeMS float64 `json:"initial_converge_ms"`
	OriginateMS       float64 `json:"originate_ms"`
	FeedConvergeMS    float64 `json:"feed_converge_ms"`
	FeedCPUMS         float64 `json:"feed_cpu_ms"`
	Sampled           int     `json:"sampled"`
	CollectorRoutes   int     `json:"collector_feed_routes"`
	RIBRoutes         int     `json:"rib_routes"`
	DistinctPaths     int     `json:"distinct_paths"`
	BytesPerRoute     float64 `json:"bytes_per_route"`
	HeapAfterFeedMB   float64 `json:"heap_after_feed_mb"`
	// FeedDecisionRuns is counted only with -trace (it needs the
	// engine's telemetry registry).
	FeedDecisionRuns int64 `json:"feed_decision_runs"`
}

func main() {
	seed := flag.Int64("seed", 1, "topology and sample seed")
	trace := flag.Bool("trace", false, "count decision runs through the engine's telemetry registry")
	flag.Parse()
	res, err := run(*seed, feedPrefixes, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "feeddriver:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "feeddriver:", err)
		os.Exit(1)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuMS is this process's user+system CPU so far.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

func run(seed int64, n int, trace bool) (*result, error) {
	cfg := topo.InternetConfig()
	cfg.Seed = seed
	res := &result{}

	t0 := time.Now()
	e := topo.Build(cfg)
	t1 := time.Now()
	e.Net.RunToQuiescence()
	t2 := time.Now()
	res.BuildMS, res.InitialConvergeMS = ms(t1.Sub(t0)), ms(t2.Sub(t1))
	if n > len(e.Prefixes) {
		return nil, fmt.Errorf("a sample of %d exceeds the %d prefixes of the tier", n, len(e.Prefixes))
	}

	var decisions *telemetry.Counter
	if trace {
		reg := telemetry.New()
		e.Net.SetMetrics(reg)
		decisions = reg.Counter("bgp_decision_runs_total")
	}

	// The vantage speaker peers with the collector and announces each
	// sampled prefix with its real origin chain carried as poison.
	const feedID = bgp.RouterID(9_000_000)
	col := e.Collectors[0]
	e.Net.AddSpeaker(feedID, asn.AS(64999), "vantage-feed")
	e.Net.Connect(feedID, col,
		bgp.PeerConfig{
			ClassifyAs: bgp.ClassPeer,
			ExportAllow: bgp.NewClassSet(bgp.ClassOwn, bgp.ClassCustomer,
				bgp.ClassPeer, bgp.ClassProvider, bgp.ClassREPeer),
		},
		bgp.PeerConfig{ClassifyAs: bgp.ClassPeer, ExportAllow: bgp.NewClassSet()},
	)
	sample := sampleByOrigin(e, seed, n)
	res.Sampled = n

	cpu0 := cpuMS()
	chain := make([]asn.AS, 3)
	for lo := 0; lo < n; lo += feedBatch {
		b0 := time.Now()
		for _, i := range sample[lo:min(lo+feedBatch, n)] {
			pi := e.Prefixes[i]
			info := e.AS(pi.Origin)
			up := pi.Origin
			if len(info.REProviders) > 0 {
				up = info.REProviders[0]
			} else if len(info.CommodityProviders) > 0 {
				up = info.CommodityProviders[0]
			}
			chain[0], chain[1], chain[2] = e.Lumen.AS, up, pi.Origin
			e.Net.OriginateWith(feedID, pi.Prefix, bgp.OriginateOpts{Poison: chain})
		}
		b1 := time.Now()
		e.Net.RunToQuiescence()
		res.OriginateMS += ms(b1.Sub(b0))
		res.FeedConvergeMS += ms(time.Since(b1))
	}
	res.FeedCPUMS = cpuMS() - cpu0
	res.FeedDecisionRuns = decisions.Value()

	// A fed route reads "<feed> <poison chain> <feed>", so the sampled
	// prefix's own origin sits second from the end.
	sp := e.Net.Speaker(col)
	for _, i := range sample {
		pi := e.Prefixes[i]
		if r := sp.AdjIn(pi.Prefix, feedID); r != nil && len(r.Path) >= 2 && r.Path[len(r.Path)-2] == pi.Origin {
			res.CollectorRoutes++
		}
	}
	rs := e.Net.RIBStats()
	res.RIBRoutes, res.DistinctPaths, res.BytesPerRoute = rs.Routes, rs.DistinctPaths, rs.BytesPerRoute()
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	res.HeapAfterFeedMB = float64(mem.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(e)
	return res, nil
}

// sampleByOrigin picks n prefix indices: every prefix of origin ASes
// taken in seeded random order, the last origin cut short. Whole
// origins keep the full table's shape, in which each origin's prefixes
// share one interned path (~13 routes a path); a uniform prefix sample
// would give nearly every fed route a path of its own.
func sampleByOrigin(e *topo.Ecosystem, seed int64, n int) []int {
	byOrigin := map[asn.AS][]int{}
	var origins []asn.AS
	for i, pi := range e.Prefixes {
		if byOrigin[pi.Origin] == nil {
			origins = append(origins, pi.Origin)
		}
		byOrigin[pi.Origin] = append(byOrigin[pi.Origin], i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(origins), func(i, j int) { origins[i], origins[j] = origins[j], origins[i] })
	sample := make([]int, 0, n)
	for _, o := range origins {
		sample = append(sample, byOrigin[o]...)
		if len(sample) >= n {
			break
		}
	}
	return sample[:n]
}
