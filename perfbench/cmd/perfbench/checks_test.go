package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stdoutFixture is a resurvey stdout cut down to what the checks read.
const stdoutFixture = `building ecosystem (seed 1)...
  2486 R&E-connected origin ASes; 15684 prefixes announced, 400 excluded as entirely covered (§3.2), 15284 probed
  10067 with ISI seeds (65.9%), 10057 responsive (65.8%), 7796 with three targets (77.5%)

running SURF and Internet2 experiments...

Table 1: results for tested prefixes — SURF (29 May 2025)
Inference              Prefixes         ASes
----------------------------------------------------
Always R&E             8140      82.0%  1962  85.8%
Always commodity       656       6.6%   265   11.6%
Switch to R&E          886       8.9%   199   8.7%
Switch to commodity    5         0.1%   1     0.0%
Mixed R&E + commodity  231       2.3%   199   8.7%
Oscillating            13        0.1%   1     0.0%
Total:                 9931             2287

Table 1: results for tested prefixes — Internet2 (5 June 2025)
Inference              Prefixes         ASes
----------------------------------------------------
Always R&E             8081      81.2%  1925  84.1%
Always commodity       663       6.7%   266   11.6%
Switch to R&E          985       9.9%   237   10.4%
Switch to commodity    1         0.0%   1     0.0%
Mixed R&E + commodity  226       2.3%   196   8.6%
Oscillating            2         0.0%   1     0.0%
Total:                 9958             2288
`

// Each self-test feeds a corrupted case to one check and shows it
// fires, after showing the clean case passes.

func TestSameBytesFiresOnFlippedByte(t *testing.T) {
	ref := []byte(stdoutFixture)
	if err := sameBytes("stdout", ref, append([]byte(nil), ref...)); err != nil {
		t.Fatalf("identical stdout: %v", err)
	}
	flipped := append([]byte(nil), ref...)
	flipped[200] ^= 1
	err := sameBytes("stdout", ref, flipped)
	if err == nil || !strings.Contains(err.Error(), "byte 200") {
		t.Fatalf("flipped byte 200: got %v", err)
	}
}

func TestTable1AccountsFires(t *testing.T) {
	if err := table1Accounts([]byte(stdoutFixture)); err != nil {
		t.Fatalf("clean stdout: %v", err)
	}
	for name, bad := range map[string]string{
		"dropped row":     strings.Replace(stdoutFixture, "Oscillating            13 ", "", 1),
		"wrong total":     strings.Replace(stdoutFixture, "Total:                 9958", "Total:                 9959", 1),
		"over responsive": strings.Replace(stdoutFixture, "10057 responsive", "9940 responsive", 1),
		"one table":       stdoutFixture[:strings.LastIndex(stdoutFixture, "Table 1:")],
	} {
		if err := table1Accounts([]byte(bad)); err == nil {
			t.Errorf("%s: check did not fire", name)
		}
	}
}

func TestCheckFeedFires(t *testing.T) {
	good := feedResult{Sampled: 80000, CollectorRoutes: 80000, RIBRoutes: 655103, DistinctPaths: 13110, BytesPerRoute: 54.5}
	if f := checkFeed(&good, &good); len(f) != 0 {
		t.Fatalf("clean feed: %v", f)
	}
	dropped := good
	dropped.CollectorRoutes--
	fat := good
	fat.BytesPerRoute = 64.5
	drift := good
	drift.DistinctPaths++
	for name, bad := range map[string]feedResult{"dropped fed prefix": dropped, "over budget": fat, "path count drift": drift} {
		if f := checkFeed(&bad, &good); len(f) != 1 {
			t.Errorf("%s: got %v, want one failure", name, f)
		}
	}
}

func TestCheckJobFires(t *testing.T) {
	out := []byte(`{"surf":{"rounds":9}}`)
	if err := checkJob("done", out, nil); err != nil {
		t.Fatalf("first done job: %v", err)
	}
	if err := checkJob("done", out, out); err != nil {
		t.Fatalf("repeated done job: %v", err)
	}
	if err := checkJob("failed", nil, out); err == nil {
		t.Error("failed job: check did not fire")
	}
	if err := checkJob("done", []byte(`{"surf":{"rounds":8}}`), out); err == nil {
		t.Error("changed output: check did not fire")
	}
}

func TestRememberedFiresAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	if err := remembered(dir, "k", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := remembered(dir, "k", []byte("a")); err != nil {
		t.Fatalf("same output: %v", err)
	}
	if err := remembered(dir, "k", []byte("b")); err == nil {
		t.Fatal("changed output: check did not fire")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the names and units this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	match := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, perfbench %s %s %s", kind, i, got[i], m.name, m.unit, m.better)
			}
		}
	}
	match("end_to_end", b.EndToEnd, e2eMetrics)
	match("per_layer", b.PerLayer, layerMetrics)
}
