package telemetry

// Registry state persistence for checkpoint/resume. SaveState writes
// everything a registry has accumulated — metric values, closed phase
// spans, the *open* span stack, and shard timings — as JSON;
// LoadState rebuilds a registry from it and returns the reopened open
// spans so the resumed run keeps nesting new spans under the same
// phase tree instead of starting a parallel one. A resumed run that
// finishes then snapshots a manifest byte-identical (under
// ZeroDurations) to the cold run's.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// savedState is the JSON layout of a persisted registry.
type savedState struct {
	Metrics MetricsSnapshot `json:"metrics"`
	Workers int             `json:"workers"`
	Shards  []ShardTiming   `json:"shards"`
	Phases  []SpanRecord    `json:"phases"`
	// Open is the active span stack, outermost first. Open spans have
	// no SpanRecord yet (records are appended at End); each entry here
	// carries the fields needed to rebuild the live Span.
	Open []SpanRecord `json:"open"`
	Seq  int          `json:"seq"`
}

// SaveState serializes the registry's full accumulated state to w.
// Unlike Snapshot, it is lossless: histogram bucket counts, open
// spans, and the span sequence counter all round-trip through
// LoadState.
func (r *Registry) SaveState(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: SaveState on nil registry")
	}
	var st savedState

	r.mu.Lock()
	st.Metrics.Counters = make([]CounterValue, 0, len(r.counters))
	for _, name := range r.sortedCounterNames() {
		st.Metrics.Counters = append(st.Metrics.Counters, CounterValue{Name: name, Value: r.counters[name].Value()})
	}
	st.Metrics.Gauges = make([]GaugeValue, 0, len(r.gauges))
	for _, name := range r.sortedGaugeNames() {
		st.Metrics.Gauges = append(st.Metrics.Gauges, GaugeValue{Name: name, Value: r.gauges[name].Value()})
	}
	st.Metrics.Histograms = make([]HistogramValue, 0, len(r.hists))
	for _, name := range r.sortedHistNames() {
		h := r.hists[name]
		hv := HistogramValue{Name: name, Count: h.Count(), Sum: h.Sum()}
		for i := range h.buckets {
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatBound(h.bounds[i])
			}
			hv.Buckets = append(hv.Buckets, BucketValue{LE: le, Count: h.buckets[i].Load()})
		}
		st.Metrics.Histograms = append(st.Metrics.Histograms, hv)
	}
	r.mu.Unlock()

	r.parMu.Lock()
	st.Workers = r.workers
	st.Shards = make([]ShardTiming, 0, len(r.shardStats))
	for k, s := range r.shardStats {
		st.Shards = append(st.Shards, ShardTiming{
			Phase: k.phase, Shard: k.shard,
			Items: s.items, Calls: s.calls,
			DurationMS: float64(s.durNS) / 1e6,
		})
	}
	r.parMu.Unlock()
	sort.Slice(st.Shards, func(i, j int) bool {
		a, b := st.Shards[i], st.Shards[j]
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Shard < b.Shard
	})

	r.spanMu.Lock()
	st.Phases = append([]SpanRecord(nil), r.phases...)
	st.Seq = r.seq
	for _, sp := range r.active {
		st.Open = append(st.Open, SpanRecord{
			Seq:     sp.seq,
			Path:    sp.path,
			Depth:   sp.depth,
			StartMS: sp.start.Sub(r.epoch).Seconds() * 1e3,
		})
	}
	r.spanMu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&st); err != nil {
		return fmt.Errorf("telemetry: encode state: %w", err)
	}
	return nil
}

// LoadState restores state saved by SaveState into r (normally a fresh
// registry) and returns the reopened span stack, outermost first, so
// the caller can End them in reverse order as the resumed phases
// complete. Counter/gauge/histogram values, shard timings, closed
// spans, and the span sequence counter all continue exactly where the
// saved run left off. A state that fails to load changes nothing.
func (r *Registry) LoadState(rd io.Reader) ([]*Span, error) {
	if r == nil {
		return nil, fmt.Errorf("telemetry: LoadState on nil registry")
	}
	var st savedState
	if err := json.NewDecoder(rd).Decode(&st); err != nil {
		return nil, fmt.Errorf("telemetry: decode state: %w", err)
	}

	// Check every histogram before touching r, so a state that will not
	// load leaves the registry exactly as it was.
	bounds := make([][]float64, len(st.Metrics.Histograms))
	buckets := map[string]int{}
	for i, hv := range st.Metrics.Histograms {
		if len(hv.Buckets) == 0 {
			return nil, fmt.Errorf("telemetry: state histogram %q has no buckets", hv.Name)
		}
		for _, b := range hv.Buckets[:len(hv.Buckets)-1] {
			v, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: state histogram %q bound %q: %w", hv.Name, b.LE, err)
			}
			bounds[i] = append(bounds[i], v)
		}
		want, seen := buckets[hv.Name]
		if !seen {
			r.mu.Lock()
			h := r.hists[hv.Name]
			r.mu.Unlock()
			switch {
			case h != nil:
				want = len(h.buckets)
			case len(bounds[i]) == 0:
				want = len(DefaultLatencyBounds) + 1
			default:
				want = len(bounds[i]) + 1
			}
			buckets[hv.Name] = want
		}
		if want != len(hv.Buckets) {
			return nil, fmt.Errorf("telemetry: state histogram %q bucket count mismatch", hv.Name)
		}
	}

	for _, c := range st.Metrics.Counters {
		r.Counter(c.Name).Add(c.Value)
	}
	for _, g := range st.Metrics.Gauges {
		r.Gauge(g.Name).Set(g.Value)
	}
	for i, hv := range st.Metrics.Histograms {
		h := r.Histogram(hv.Name, bounds[i]...)
		for k, b := range hv.Buckets {
			h.buckets[k].Add(b.Count)
		}
		h.count.Add(hv.Count)
		h.sumMicros.Add(int64(math.Round(hv.Sum * 1e6)))
	}

	r.parMu.Lock()
	r.workers = st.Workers
	if r.shardStats == nil && len(st.Shards) > 0 {
		r.shardStats = make(map[shardKey]*shardStat)
	}
	for _, s := range st.Shards {
		k := shardKey{phase: s.Phase, shard: s.Shard}
		dst := r.shardStats[k]
		if dst == nil {
			dst = &shardStat{}
			r.shardStats[k] = dst
		}
		dst.items += s.Items
		dst.calls += s.Calls
		dst.durNS += int64(s.DurationMS * 1e6)
	}
	r.parMu.Unlock()

	var open []*Span
	r.spanMu.Lock()
	r.phases = append(r.phases, st.Phases...)
	if st.Seq > r.seq {
		r.seq = st.Seq
	}
	for _, rec := range st.Open {
		name := rec.Path
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		sp := &Span{
			r:     r,
			name:  name,
			path:  rec.Path,
			depth: rec.Depth,
			seq:   rec.Seq,
			start: r.epoch.Add(time.Duration(rec.StartMS * float64(time.Millisecond))),
		}
		r.active = append(r.active, sp)
		open = append(open, sp)
	}
	r.spanMu.Unlock()
	return open, nil
}
