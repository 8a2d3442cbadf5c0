package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliconf"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

// TestFaultsFlagValidation checks -faults rejects out-of-range
// intensities with a usage error before any work starts.
func TestFaultsFlagValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.01, 5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := options{NSeeds: 1, Config: cliconf.Config{Faults: bad}}
		if err := o.validate(); err == nil {
			t.Errorf("-faults %v accepted, want usage error", bad)
		}
	}
	for _, good := range []float64{0, 0.1, 0.5, 1} {
		o := options{NSeeds: 1, Config: cliconf.Config{Faults: good}}
		if err := o.validate(); err != nil {
			t.Errorf("-faults %v rejected: %v", good, err)
		}
	}
	if err := (options{NSeeds: 0}).validate(); err == nil {
		t.Error("-seeds 0 accepted, want usage error")
	}
}

func TestSweepIntensities(t *testing.T) {
	got := core.SweepIntensities(0.5)
	want := []float64{0, 0.1, 0.25, 0.5}
	if len(got) != len(want) {
		t.Fatalf("core.SweepIntensities(0.5) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("core.SweepIntensities(0.5) = %v, want %v", got, want)
		}
	}
	// A max between ladder points becomes the final point itself.
	got = core.SweepIntensities(0.3)
	if got[len(got)-1] != 0.3 {
		t.Fatalf("core.SweepIntensities(0.3) = %v, want final point 0.3", got)
	}
}

// TestManifestGolden runs the reduced pipeline twice with the same
// seed and -zerotime and requires byte-identical manifests, then
// checks the promised counts are present and nonzero.
func TestManifestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		o := options{
			NSeeds: 1,
			Config: cliconf.Config{
				Small:    true,
				Seed:     1,
				Faults:   0.5,
				Manifest: p,
				ZeroTime: true,
			},
		}
		if err := run(io.Discard, o); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("manifests differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}

	f, err := os.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := telemetry.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 1 {
		t.Errorf("manifest seed = %d, want 1", m.Seed)
	}
	if m.Version == "" {
		t.Error("manifest version empty")
	}
	// The acceptance counts: BGP decisions, probe retries (the sweep
	// runs at intensity > 0), and at least one classification label.
	for _, name := range []string{
		"bgp_decision_runs_total",
		"bgp_best_path_changes_total",
		"probe_probes_sent_total",
		"probe_retries_total",
	} {
		if m.Counter(name) <= 0 {
			t.Errorf("manifest counter %s = %d, want > 0", name, m.Counter(name))
		}
	}
	labelled := int64(0)
	for _, c := range m.Metrics.Counters {
		if len(c.Name) > len("core_classifications_total") &&
			c.Name[:len("core_classifications_total")] == "core_classifications_total" {
			labelled += c.Value
		}
	}
	if labelled <= 0 {
		t.Errorf("no core_classifications_total{label=...} counts recorded")
	}
	if len(m.Phases) == 0 {
		t.Error("manifest has no phase records")
	}
	for _, ph := range m.Phases {
		if ph.StartMS != 0 || ph.DurationMS != 0 {
			t.Errorf("phase %s has nonzero wall time under -zerotime: %+v", ph.Path, ph)
		}
	}
}

// TestArtifactWriters runs a reduced survey and checks the JSON and
// MRT side outputs are complete and parseable.
func TestArtifactWriters(t *testing.T) {
	s := core.NewSurvey(core.SmallSurveyOptions())
	s.RunBoth()

	dir := t.TempDir()
	if err := writeJSON(s, filepath.Join(dir, "json")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"surf.json", "internet2.json"} {
		f, err := os.Open(filepath.Join(dir, "json", name))
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := probe.ReadJSON(f, func(addr uint32) (netutil.Prefix, bool) {
			return netutil.PrefixFrom(addr, 24), true
		})
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rounds) != len(core.Schedule()) {
			t.Errorf("%s: %d rounds, want %d", name, len(rounds), len(core.Schedule()))
		}
	}

	if err := writeMRT(s, filepath.Join(dir, "mrt")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "mrt"))
	if err != nil {
		t.Fatal(err)
	}
	// Two collector RIBs + two update streams.
	if len(entries) != 4 {
		t.Fatalf("mrt dir has %d files", len(entries))
	}
	for _, name := range []string{"updates-surf.mrt", "updates-internet2.mrt"} {
		f, err := os.Open(filepath.Join(dir, "mrt", name))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := collector.ReadUpdates(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) == 0 {
			t.Errorf("%s: empty update stream", name)
		}
		for _, rec := range recs {
			if rec.Prefix != s.Eco.MeasPrefix {
				t.Fatalf("%s: unexpected prefix %s", name, rec.Prefix)
			}
		}
	}
	for i := range s.Eco.Collectors {
		name := filepath.Join(dir, "mrt", "rib-collector"+itoa(i)+".mrt")
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		rib, err := collector.ReadMRTRIB(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rib.Routes) == 0 {
			t.Errorf("%s: empty RIB", name)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	out := ""
	for n > 0 {
		out = string(rune('0'+n%10)) + out
		n /= 10
	}
	return out
}

// TestRelationshipAccuracy sanity-checks the asrel integration at test
// scale.
func TestRelationshipAccuracy(t *testing.T) {
	s := core.NewSurvey(core.SmallSurveyOptions())
	views := core.ComputeOriginViews(s.Eco)
	acc, edges, paths := relationshipAccuracy(s, views)
	if edges < 100 || paths < 1000 {
		t.Fatalf("too little data: %d edges, %d paths", edges, paths)
	}
	if acc < 0.85 {
		t.Errorf("relationship accuracy = %.3f", acc)
	}
}

// TestWorkersDeterminismMatrix is the tentpole acceptance check: the
// same run at -workers 1, 2, and 8 must produce byte-identical
// -zerotime manifests AND byte-identical stdout (every table, every
// classification) — parallelism must be invisible in the output.
func TestWorkersDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline once per worker count")
	}
	dir := t.TempDir()
	workerCounts := []int{1, 2, 8}
	manifests := make([][]byte, len(workerCounts))
	stdouts := make([][]byte, len(workerCounts))
	// One shared manifest path (re-read between runs): stdout echoes
	// the path, so per-worker filenames would trivially differ.
	p := filepath.Join(dir, "m.json")
	for i, n := range workerCounts {
		o := options{
			NSeeds: 1,
			Config: cliconf.Config{
				Small:    true,
				Seed:     1,
				Workers:  n,
				Faults:   0.5,
				Manifest: p,
				ZeroTime: true,
			},
		}
		var out bytes.Buffer
		if err := run(&out, o); err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		m, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		manifests[i], stdouts[i] = m, out.Bytes()
	}
	for i := 1; i < len(workerCounts); i++ {
		if !bytes.Equal(manifests[0], manifests[i]) {
			t.Errorf("manifest differs between -workers %d and -workers %d",
				workerCounts[0], workerCounts[i])
		}
		if !bytes.Equal(stdouts[0], stdouts[i]) {
			t.Errorf("stdout differs between -workers %d and -workers %d",
				workerCounts[0], workerCounts[i])
		}
	}
	// The manifest must actually carry the parallel section: shard
	// records for every sharded phase, with deterministic item counts.
	m, err := telemetry.ReadManifest(bytes.NewReader(manifests[0]))
	if err != nil {
		t.Fatal(err)
	}
	if m.Parallel.Workers != 0 {
		t.Errorf("parallel.workers = %d under -zerotime, want 0", m.Parallel.Workers)
	}
	phases := map[string]bool{}
	for _, sh := range m.Parallel.Shards {
		phases[sh.Phase] = true
		if sh.Items <= 0 || sh.Calls <= 0 {
			t.Errorf("shard %s/%d has items=%d calls=%d, want > 0", sh.Phase, sh.Shard, sh.Items, sh.Calls)
		}
		if sh.DurationMS != 0 {
			t.Errorf("shard %s/%d has nonzero duration under -zerotime", sh.Phase, sh.Shard)
		}
	}
	for _, want := range []string{"probe", "classify", "faultsweep"} {
		if !phases[want] {
			t.Errorf("manifest parallel section missing phase %q", want)
		}
	}
}

// TestIncrementalCLIEquivalence runs the whole binary surface —
// stdout tables, MRT collector dumps, run manifest — once per engine
// mode and requires byte identity everywhere except the mode's own
// record: the options.incremental field and the work-accounting
// counters (bgp_decision_full_scans_total, bgp_inc_*), which are the
// point of the feature.
func TestIncrementalCLIEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline once per engine mode")
	}
	dir := t.TempDir()
	type artifacts struct {
		stdout   []byte
		manifest []byte
		mrt      map[string][]byte
	}
	cell := func(incremental bool) artifacts {
		sub := filepath.Join(dir, map[bool]string{true: "inc", false: "full"}[incremental])
		mrtDir := filepath.Join(sub, "mrt")
		if err := os.MkdirAll(mrtDir, 0o755); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "m.json") // shared: stdout echoes the path
		o := options{
			NSeeds: 1,
			MRTDir: mrtDir,
			Config: cliconf.Config{
				Small:       true,
				Seed:        1,
				Incremental: incremental,
				Manifest:    p,
				ZeroTime:    true,
			},
		}
		var out bytes.Buffer
		if err := run(&out, o); err != nil {
			t.Fatalf("incremental=%v: %v", incremental, err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		a := artifacts{stdout: normalizeMRTDir(t, out.Bytes(), mrtDir), manifest: normalizeManifest(t, raw), mrt: map[string][]byte{}}
		ents, err := os.ReadDir(mrtDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(mrtDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			a.mrt[e.Name()] = b
		}
		return a
	}
	full := cell(false)
	inc := cell(true)
	if !bytes.Equal(full.stdout, inc.stdout) {
		t.Errorf("stdout differs between modes:\n--- full ---\n%s\n--- incremental ---\n%s", full.stdout, inc.stdout)
	}
	if !bytes.Equal(full.manifest, inc.manifest) {
		t.Errorf("normalized manifests differ between modes:\n--- full ---\n%s\n--- incremental ---\n%s", full.manifest, inc.manifest)
	}
	if len(full.mrt) == 0 {
		t.Error("full run produced no MRT dumps")
	}
	for name, fb := range full.mrt {
		if ib, ok := inc.mrt[name]; !ok {
			t.Errorf("incremental run missing MRT dump %s", name)
		} else if !bytes.Equal(fb, ib) {
			t.Errorf("MRT dump %s differs between modes", name)
		}
	}
	for name := range inc.mrt {
		if _, ok := full.mrt[name]; !ok {
			t.Errorf("incremental run has extra MRT dump %s", name)
		}
	}
}

// normalizeMRTDir erases the per-mode MRT output directory from
// stdout, which echoes the path it wrote to.
func normalizeMRTDir(t *testing.T, stdout []byte, dir string) []byte {
	t.Helper()
	return bytes.ReplaceAll(stdout, []byte(dir), []byte("MRTDIR"))
}

// normalizeManifest strips exactly the fields the equivalence contract
// exempts: the incremental option record and the work-accounting
// counters. Everything else must match byte for byte.
func normalizeManifest(t *testing.T, raw []byte) []byte {
	t.Helper()
	m, err := telemetry.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var om map[string]any
	if err := json.Unmarshal(m.Options, &om); err != nil {
		t.Fatal(err)
	}
	delete(om, "incremental")
	opts, err := json.Marshal(om)
	if err != nil {
		t.Fatal(err)
	}
	m.Options = opts
	kept := m.Metrics.Counters[:0]
	for _, c := range m.Metrics.Counters {
		if c.Name == "bgp_decision_full_scans_total" || strings.HasPrefix(c.Name, "bgp_inc_") {
			continue
		}
		// Warm-start accounting is also mode-dependent: an engine
		// snapshot serializes the incremental engine's dirty bookkeeping,
		// so snapshot_bytes differs between modes while restore counts
		// stay identical.
		if c.Name == "snapshot_bytes" {
			continue
		}
		kept = append(kept, c)
	}
	m.Metrics.Counters = kept
	m.Snapshot.Bytes = 0
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
