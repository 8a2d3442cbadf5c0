package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// sameBytes checks that a repetition reproduced the reference output.
func sameBytes(what string, ref, got []byte) error {
	if bytes.Equal(ref, got) {
		return nil
	}
	i := 0
	for i < len(ref) && i < len(got) && ref[i] == got[i] {
		i++
	}
	return fmt.Errorf("%s differs from the reference at byte %d (%d vs %d bytes)", what, i, len(got), len(ref))
}

var responsiveRE = regexp.MustCompile(`(\d+) responsive`)

// table1Accounts checks resurvey stdout: there are two Table 1 blocks,
// each block's rows add up to its Total, and each Total is positive and
// no larger than the number of responsive (probed) prefixes the header
// reports. Unresponsive and insufficient-data prefixes are the rest;
// the traced run checks them exactly.
func table1Accounts(stdout []byte) error {
	m := responsiveRE.FindSubmatch(stdout)
	if m == nil {
		return fmt.Errorf("no responsive-prefix count in the header")
	}
	responsive, _ := strconv.Atoi(string(m[1]))
	blocks := 0
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "Table 1: results") {
			continue
		}
		blocks++
		title := sc.Text()
		rows, total := 0, -1
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "Inference") || strings.HasPrefix(line, "---") {
				continue
			}
			n, ok := firstInt(line)
			if !ok {
				return fmt.Errorf("%s: unreadable row %q", title, line)
			}
			if strings.HasPrefix(line, "Total:") {
				total = n
				break
			}
			rows += n
		}
		if total <= 0 || rows != total || total > responsive {
			return fmt.Errorf("%s: rows add up to %d, Total %d, %d prefixes probed", title, rows, total, responsive)
		}
	}
	if blocks != 2 {
		return fmt.Errorf("%d Table 1 blocks, want 2", blocks)
	}
	return nil
}

func firstInt(line string) (int, bool) {
	for _, f := range strings.Fields(line) {
		if n, err := strconv.Atoi(f); err == nil {
			return n, true
		}
	}
	return 0, false
}

// feedResult is one feeddriver run's report.
type feedResult struct {
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
	FeedDecisionRuns  int64   `json:"feed_decision_runs"`
}

// maxBytesPerRoute is the RIB memory budget topo's
// BenchmarkInternetScaleRIB enforces.
const maxBytesPerRoute = 64

// checkFeed checks one feed run, and its RIB shape against the first
// repetition of the same seed (ref, nil for the first).
func checkFeed(r, ref *feedResult) []string {
	var fails []string
	if r.CollectorRoutes != r.Sampled {
		fails = append(fails, fmt.Sprintf("collector holds %d feed routes for %d sampled prefixes", r.CollectorRoutes, r.Sampled))
	}
	if r.BytesPerRoute > maxBytesPerRoute {
		fails = append(fails, fmt.Sprintf("%.2f bytes/route exceeds the %d-byte budget", r.BytesPerRoute, maxBytesPerRoute))
	}
	if ref != nil && (r.RIBRoutes != ref.RIBRoutes || r.DistinctPaths != ref.DistinctPaths) {
		fails = append(fails, fmt.Sprintf("RIB holds %d routes / %d paths, first repetition %d / %d",
			r.RIBRoutes, r.DistinctPaths, ref.RIBRoutes, ref.DistinctPaths))
	}
	return fails
}

// checkJob checks one service job: it finished done and its output
// equals the output of the job's earlier repetitions (ref, nil for the
// first).
func checkJob(state string, output, ref []byte) error {
	if state != "done" {
		return fmt.Errorf("job ended %q, want done", state)
	}
	if ref != nil {
		return sameBytes("job output", ref, output)
	}
	return nil
}

// remembered compares got with the output an earlier run in this
// checkout recorded under key, or records it. It carries the
// same-seed determinism check across runs whose single repetition
// leaves nothing to compare within the run.
func remembered(dir, key string, got []byte) error {
	sum := sha256.Sum256(got)
	digest := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, key+".sha256")
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != digest {
			return fmt.Errorf("%s: output sha256 %.12s, an earlier run recorded %.12s", key, digest, prev)
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(digest), 0o644)
}
