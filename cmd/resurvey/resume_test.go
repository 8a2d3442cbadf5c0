package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/netutil"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

// resumeOptions is the reduced-scale configuration the resume tests
// run: small world, fixed seed, -zerotime manifest for byte-stable
// comparison.
func resumeOptions(snapshotDir, manifest, mrtDir string, resume bool, workers int) options {
	return options{
		NSeeds: 1,
		MRTDir: mrtDir,
		Config: cliconf.Config{
			Small:       true,
			Seed:        1,
			Workers:     workers,
			Incremental: true,
			Manifest:    manifest,
			ZeroTime:    true,
			SnapshotDir: snapshotDir,
			Resume:      resume,
		},
	}
}

// TestResumeFlagValidation pins the cliconf contract: -resume without
// -snapshot-dir is a usage error.
func TestResumeFlagValidation(t *testing.T) {
	o := options{NSeeds: 1, Config: cliconf.Config{Resume: true}}
	if err := o.validate(); err == nil {
		t.Error("-resume without -snapshot-dir accepted, want usage error")
	}
	o.SnapshotDir = "somewhere"
	if err := o.validate(); err != nil {
		t.Errorf("-resume -snapshot-dir rejected: %v", err)
	}
}

// TestResumeNoCheckpoints covers the cold-start fallback: -resume with
// an empty (here: nonexistent) snapshot directory must behave exactly
// like an uninterrupted run — same stdout, same manifest — and must
// not count any corrupt checkpoints.
func TestResumeNoCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "m.json") // shared: stdout echoes the path

	var cold bytes.Buffer
	if err := run(&cold, resumeOptions("", p, "", false, 0)); err != nil {
		t.Fatal(err)
	}
	coldManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	o := resumeOptions(filepath.Join(dir, "never-written"), p, "", true, 0)
	if err := run(&resumed, o); err != nil {
		t.Fatal(err)
	}
	resumedManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("stdout differs between cold run and -resume with no checkpoints:\n--- cold ---\n%s\n--- resumed ---\n%s", cold.Bytes(), resumed.Bytes())
	}
	if !bytes.Equal(coldManifest, resumedManifest) {
		t.Errorf("manifest differs between cold run and -resume with no checkpoints")
	}
	m, err := telemetry.ReadManifest(bytes.NewReader(resumedManifest))
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Counter("snapshot_checkpoint_corrupt_total"); v != 0 {
		t.Errorf("snapshot_checkpoint_corrupt_total = %d on a clean cold-start fallback, want 0", v)
	}
}

// TestResumeCorruptCheckpoint covers the fallback chain: when the
// newest checkpoint is corrupt, -resume must fall back to the previous
// valid one, surface the skip via snapshot_checkpoint_corrupt_total,
// and still reproduce the uninterrupted run's stdout byte for byte.
func TestResumeCorruptCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	p := filepath.Join(dir, "m.json")

	var cold bytes.Buffer
	if err := run(&cold, resumeOptions(ckDir, p, "", false, 0)); err != nil {
		t.Fatal(err)
	}
	coldManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	names := checkpointFiles(t, ckDir)
	if len(names) < 2 {
		t.Fatalf("cold run wrote %d checkpoints, want >= 2 to exercise fallback", len(names))
	}
	// Flip one payload byte in the newest checkpoint: the section CRC
	// catches it and the loader must move on to the next-newest file.
	latest := filepath.Join(ckDir, names[len(names)-1])
	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(latest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	if err := run(&resumed, resumeOptions(ckDir, p, "", true, 0)); err != nil {
		t.Fatal(err)
	}
	resumedManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("stdout differs between cold run and resume-after-corruption:\n--- cold ---\n%s\n--- resumed ---\n%s", cold.Bytes(), resumed.Bytes())
	}
	m, err := telemetry.ReadManifest(bytes.NewReader(resumedManifest))
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Counter("snapshot_checkpoint_corrupt_total"); v != 1 {
		t.Errorf("snapshot_checkpoint_corrupt_total = %d, want 1 (one corrupt file skipped)", v)
	}
	// Everything except that counter must match the cold manifest.
	if !bytes.Equal(stripCorruptCounter(t, coldManifest), stripCorruptCounter(t, resumedManifest)) {
		t.Errorf("manifest (minus the corrupt counter) differs between cold run and resume-after-corruption")
	}
}

// TestResumeWorkersByteEqual is the acceptance check from the issue:
// a -resume run at -workers 4 must reproduce a cold -workers 1 run's
// stdout, manifest, and MRT artifact bytes exactly.
func TestResumeWorkersByteEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reduced pipeline twice")
	}
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	mrtDir := filepath.Join(dir, "mrt") // shared: stdout echoes the path
	p := filepath.Join(dir, "m.json")

	var cold bytes.Buffer
	if err := run(&cold, resumeOptions(ckDir, p, mrtDir, false, 1)); err != nil {
		t.Fatal(err)
	}
	coldManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	coldMRT := readDirBytes(t, mrtDir)
	if len(coldMRT) == 0 {
		t.Fatal("cold run produced no MRT dumps")
	}

	var resumed bytes.Buffer
	if err := run(&resumed, resumeOptions(ckDir, p, mrtDir, true, 4)); err != nil {
		t.Fatal(err)
	}
	resumedManifest, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	resumedMRT := readDirBytes(t, mrtDir)

	if !bytes.Equal(cold.Bytes(), resumed.Bytes()) {
		t.Errorf("stdout differs between cold -workers 1 and -resume -workers 4:\n--- cold ---\n%s\n--- resumed ---\n%s", cold.Bytes(), resumed.Bytes())
	}
	if !bytes.Equal(coldManifest, resumedManifest) {
		t.Errorf("manifest differs between cold -workers 1 and -resume -workers 4")
	}
	for name, cb := range coldMRT {
		if rb, ok := resumedMRT[name]; !ok {
			t.Errorf("resumed run missing MRT dump %s", name)
		} else if !bytes.Equal(cb, rb) {
			t.Errorf("MRT dump %s differs between cold and resumed run", name)
		}
	}
	for name := range resumedMRT {
		if _, ok := coldMRT[name]; !ok {
			t.Errorf("resumed run has extra MRT dump %s", name)
		}
	}
}

// TestCheckpointRoundTrip pins the RCKP codec and the shared
// checkpoint directory on a synthetic checkpoint without running the
// pipeline: write it atomically, load it back as the newest usable
// checkpoint, compare.
func TestCheckpointRoundTrip(t *testing.T) {
	c := syntheticCheckpoint()
	d := &core.CheckpointDir{Path: t.TempDir(), Resume: true}
	if err := d.WriteFile("ckpt-1-03.rckp", c.Encode()); err != nil {
		t.Fatal(err)
	}
	got := d.LatestSurvey(c.Fingerprint, nil)
	if got == nil {
		t.Fatal("written checkpoint not found")
	}
	if got.Fingerprint != c.Fingerprint || got.Phase != c.Phase || got.Done != c.Done ||
		got.ChurnStart != c.ChurnStart || got.Start != c.Start {
		t.Fatalf("progress fields diverged: %+v vs %+v", got, c)
	}
	if len(got.Rounds) != len(c.Rounds) || got.Rounds[0].Config != c.Rounds[0].Config ||
		len(got.Rounds[0].Records) != len(c.Rounds[0].Records) ||
		got.Rounds[0].Records[0] != c.Rounds[0].Records[0] {
		t.Fatal("rounds diverged through the codec")
	}
	if len(got.Origins) != len(c.Origins) || got.Origins[64512].FinalOrigin != 11537 ||
		!got.Origins[64512].OriginsSeen[11537] {
		t.Fatalf("origins diverged: %+v", got.Origins)
	}
	if got.SURF == nil || got.SURF.Name != c.SURF.Name ||
		len(got.SURF.PerPrefix) != len(c.SURF.PerPrefix) ||
		len(got.SURF.Churn) != len(c.SURF.Churn) {
		t.Fatal("SURF result diverged through the codec")
	}
	if !bytes.Equal(got.Engine, c.Engine) || !bytes.Equal(got.Telemetry, c.Telemetry) {
		t.Fatal("nested payloads diverged")
	}
}

// TestLoadLatestCheckpointFingerprint checks that the fingerprint the
// CLI's flags produce (-seeds included) selects checkpoints, and that
// checkpoints from a different run configuration are skipped without
// being counted as corrupt.
func TestLoadLatestCheckpointFingerprint(t *testing.T) {
	dir := t.TempDir()
	c := syntheticCheckpoint()
	corrupt := 0
	d := &core.CheckpointDir{Path: dir, Resume: true, Corrupt: func(n int) { corrupt += n }}
	if err := d.WriteFile("ckpt-1-03.rckp", c.Encode()); err != nil {
		t.Fatal(err)
	}
	// Same flags: found.
	o := options{NSeeds: 3, Config: cliconf.Config{Small: true, Seed: 7, Incremental: true, Faults: 0.5, SnapshotDir: dir}}
	fp := (&core.Job{Options: o.Job(), Seeds: o.NSeeds}).SurveyFingerprint()
	if ck := d.LatestSurvey(fp, nil); ck == nil || corrupt != 0 {
		t.Fatalf("matching fingerprint: ck=%v corrupt=%d, want found with 0 corrupt", ck, corrupt)
	}
	// Different seed: skipped, not corrupt, nothing usable left.
	o.Seed = 8
	fp = (&core.Job{Options: o.Job(), Seeds: o.NSeeds}).SurveyFingerprint()
	if ck := d.LatestSurvey(fp, nil); ck != nil || corrupt != 0 {
		t.Fatalf("mismatched fingerprint: ck=%v corrupt=%d, want nil with 0 corrupt", ck, corrupt)
	}
}

func syntheticCheckpoint() *core.Checkpoint {
	surf := resultFixture()
	return &core.Checkpoint{
		Fingerprint: core.CheckpointFingerprint{Seed: 7, Small: true, Incremental: true, Faults: 0.5, NSeeds: 3},
		Phase:       1,
		Done:        3,
		ChurnStart:  42,
		Start:       9 * 3600,
		Rounds:      surf.Rounds,
		Origins:     surf.CollectorOrigins,
		SURF:        surf,
		Engine:      []byte("not a real engine snapshot"),
		Telemetry:   []byte(`{"counters":[]}`),
	}
}

// resultFixture builds a small but fully populated core.Result for
// codec round-trip tests.
func resultFixture() *core.Result {
	pfx := netutil.PrefixFrom(0x0a000000, 24)
	return &core.Result{
		Name:        "SURF",
		Configs:     []core.PrependConfig{{RE: 0, Commodity: 0}, {RE: 1, Commodity: 0}},
		ConfigTimes: []bgp.Time{9 * 3600, 10 * 3600},
		Rounds: []*probe.Round{{
			Config: "0-0",
			Start:  9 * 3600,
			End:    9*3600 + 60,
			Records: []probe.Record{{
				Prefix: pfx, Dst: 0x0a000001, Proto: 1, Port: 33434,
				SentAt: 9*3600 + 5, Responded: true, VLAN: 2, RTTms: 17.5, Retries: 1,
			}},
		}},
		PerPrefix: map[netutil.Prefix]*core.PrefixResult{
			pfx: {Prefix: pfx, Seq: []core.RoundObs{1, 2, 1}, Inference: 2, Confidence: 0.75, Observed: 3},
		},
		Churn: []bgp.UpdateRecord{{
			At: 9*3600 + 1, Collector: 3, PeerAS: 64512, Prefix: pfx,
			Announce: true, Path: asn.Path{64512, 11537},
		}},
		CollectorOrigins: map[uint32]*core.PeerView{
			64512: {FinalOrigin: 11537, OriginsSeen: map[uint32]bool{11537: true, 396955: true}},
		},
	}
}

func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".rckp" {
			names = append(names, e.Name())
		}
	}
	return names
}

func readDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// stripCorruptCounter removes snapshot_checkpoint_corrupt_total — the
// one manifest field a resume-after-corruption run legitimately adds —
// and re-serializes for byte comparison.
func stripCorruptCounter(t *testing.T, raw []byte) []byte {
	t.Helper()
	m, err := telemetry.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	kept := m.Metrics.Counters[:0]
	for _, c := range m.Metrics.Counters {
		if c.Name == "snapshot_checkpoint_corrupt_total" {
			continue
		}
		kept = append(kept, c)
	}
	m.Metrics.Counters = kept
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
