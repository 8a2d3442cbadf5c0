package telemetry

import (
	"bytes"
	"testing"
	"time"
)

// TestStateRoundTrip pins the lossless save/load contract: a registry
// saved mid-run and loaded into a fresh one must produce a
// byte-identical zero-duration manifest once both finish the same way.
func TestStateRoundTrip(t *testing.T) {
	run := func(checkpoint *bytes.Buffer, resume bool) []byte {
		r := New()
		r.SetClock((&fakeClock{t: time.Unix(1700000000, 0)}).now)
		var exp *Span
		if resume {
			open, err := r.LoadState(bytes.NewReader(checkpoint.Bytes()))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if len(open) != 1 || open[0].path != "experiment:test" {
				t.Fatalf("open spans = %+v", open)
			}
			exp = open[0]
		} else {
			r.Counter("updates_total").Add(40)
			r.Counter(Label("probe_sent_total", "config", "0-0")).Add(7)
			r.Gauge("confidence_mean").Set(0.875)
			r.Histogram("rtt_ms", 1, 10, 100).Observe(3.5)
			r.Histogram("rtt_ms").Observe(250)
			r.SetWorkers(4)
			r.AddShardTiming("probe", 0, 64, 5*time.Millisecond)
			r.AddShardTiming("probe", 1, 32, 3*time.Millisecond)
			done := r.StartSpan("build")
			done.End()
			exp = r.StartSpan("experiment:test")
			cfg := r.StartSpan("config:0-0")
			cfg.End()
			if checkpoint != nil {
				if err := r.SaveState(checkpoint); err != nil {
					t.Fatalf("save: %v", err)
				}
			}
		}
		// The remainder of the "run", identical either way.
		cfg := r.StartSpan("config:4-0")
		cfg.End()
		exp.End()
		r.Counter("updates_total").Add(2)
		m, err := r.Snapshot(SnapshotOptions{Seed: 1, ZeroDurations: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var ckpt bytes.Buffer
	cold := run(&ckpt, false)
	warm := run(&ckpt, true)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("resumed manifest differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	// Sanity: the resumed span nests correctly (config under experiment).
	m, _ := ReadManifest(bytes.NewReader(warm))
	foundNested := false
	for _, p := range m.Phases {
		if p.Path == "experiment:test/config:4-0" && p.Depth == 1 {
			foundNested = true
		}
	}
	if !foundNested {
		t.Fatalf("resumed run lost span nesting: %+v", m.Phases)
	}
}

func TestStateRejectsGarbage(t *testing.T) {
	r := New()
	if _, err := r.LoadState(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Fatal("garbage state loaded cleanly")
	}
}

// TestStateLoadAllOrNothing: a state whose histogram cannot load (one
// +Inf bucket where the default layout has eleven) is rejected before
// the counter ahead of it lands, so the registry stays fresh.
func TestStateLoadAllOrNothing(t *testing.T) {
	r := New()
	bad := `{"metrics":{"counters":[{"name":"stale_total","value":7}],` +
		`"histograms":[{"name":"h","count":1,"sum":1,"buckets":[{"le":"+Inf","count":1}]}]}}`
	if _, err := r.LoadState(bytes.NewReader([]byte(bad))); err == nil {
		t.Fatal("bucket-count mismatch loaded cleanly")
	}
	m, err := r.Snapshot(SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Metrics.Counters) != 0 || len(m.Metrics.Histograms) != 0 {
		t.Fatalf("failed LoadState left metrics behind: %+v", m.Metrics)
	}
}

// TestManifestSnapshotSection checks that the dedicated snapshot
// section mirrors the warm-start counters.
func TestManifestSnapshotSection(t *testing.T) {
	r := New()
	r.Counter("snapshot_bytes").Add(1234)
	r.Counter("snapshot_restore_total").Add(5)
	r.Counter("core_warm_start_skipped_convergence_runs_total").Add(4)
	m, err := r.Snapshot(SnapshotOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshot.Bytes != 1234 || m.Snapshot.Restores != 5 || m.Snapshot.SkippedConvergenceRuns != 4 {
		t.Fatalf("snapshot section = %+v", m.Snapshot)
	}
	// Absent counters produce a zero section, not a panic.
	m2, err := New().Snapshot(SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Snapshot != (SnapshotActivity{}) {
		t.Fatalf("zero registry snapshot section = %+v", m2.Snapshot)
	}
}
