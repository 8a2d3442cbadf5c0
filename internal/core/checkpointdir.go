package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/optimize"
	"repro/internal/telemetry"
)

// CheckpointDir is a directory of durable run state: a survey's RCKP
// checkpoints (ckpt-<phase>-<done>.rckp), an optimizer's ROPT search
// states (search-<generation>.ropt), and, in resurveyd's job
// directories, the RJOB manifest. It owns the one atomic file write
// (WriteFile) and the one newest-valid scan, so the CLIs and the
// service resume, fall back past corrupt files, and count them the
// same way. Checkpoint I/O never touches stdout or the run's own
// telemetry beyond what the hooks below route, so a resumed run
// reproduces an uninterrupted run's bytes.
type CheckpointDir struct {
	Path string
	// Resume makes a run continue from the newest usable checkpoint in
	// Path instead of starting cold.
	Resume bool
	// Logf, when non-nil, receives one line per skipped file, failed
	// write, and resume decision.
	Logf func(format string, args ...any)
	// Saved, when non-nil, is told the outcome of every checkpoint write.
	Saved func(error)
	// Resumed, when non-nil, fires when a run continues from a
	// checkpoint.
	Resumed func()
	// Corrupt, when non-nil, is told how many unusable files a resume
	// scan skipped, whenever it skipped any.
	Corrupt func(n int)
}

func (d *CheckpointDir) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// WriteFile writes data to name in the directory atomically (temp file,
// then rename), creating the directory on first use: a crash at any
// instant leaves either the old file or the new one, never a torn one.
func (d *CheckpointDir) WriteFile(name string, data []byte) error {
	if err := os.MkdirAll(d.Path, 0o755); err != nil {
		return err
	}
	path := filepath.Join(d.Path, name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// latest walks the files with extension ext newest first (the names
// sort chronologically) and stops at the first one use accepts. use
// returns an error for a corrupt file, which is counted and skipped,
// and false for a valid file of a different run configuration, which
// is skipped uncounted. It reports the resume decision through the
// hooks.
func (d *CheckpointDir) latest(ext string, use func(data []byte) (bool, error)) {
	if d == nil || !d.Resume {
		return
	}
	entries, err := os.ReadDir(d.Path)
	if err != nil && !os.IsNotExist(err) {
		d.logf("resume: %v", err)
	}
	var names []string
	for _, ent := range entries {
		if !ent.IsDir() && filepath.Ext(ent.Name()) == ext {
			names = append(names, ent.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	corrupt, found := 0, ""
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(d.Path, name))
		ok := false
		if err == nil {
			ok, err = use(data)
		}
		if err != nil {
			corrupt++
			d.logf("checkpoint %s unusable, trying older: %v", name, err)
			continue
		}
		if !ok {
			d.logf("checkpoint %s belongs to a different run configuration, skipping", name)
			continue
		}
		found = name
		break
	}
	if corrupt > 0 && d.Corrupt != nil {
		d.Corrupt(corrupt)
	}
	if found == "" {
		d.logf("no usable checkpoint in %s, cold-starting", d.Path)
		return
	}
	d.logf("resuming from %s", found)
	if d.Resumed != nil {
		d.Resumed()
	}
}

// saved reports one checkpoint write's outcome.
func (d *CheckpointDir) saved(err error) {
	if err != nil {
		d.logf("checkpoint: %v", err)
	}
	if d.Saved != nil {
		d.Saved(err)
	}
}

// LatestSurvey returns the newest survey checkpoint matching fp, with
// its telemetry state restored into reg and its Span set to the
// reopened in-flight experiment span; nil when the run starts cold (no
// Resume, or nothing usable). A checkpoint whose telemetry will not
// load counts as corrupt: LoadState leaves reg untouched on failure,
// so the fallback to an older file, or the cold start, records into a
// clean registry.
func (d *CheckpointDir) LatestSurvey(fp CheckpointFingerprint, reg *telemetry.Registry) *Checkpoint {
	var ck *Checkpoint
	d.latest(".rckp", func(data []byte) (bool, error) {
		c, err := DecodeCheckpoint(data)
		if err != nil || c.Fingerprint != fp {
			return false, err
		}
		if reg != nil && len(c.Telemetry) > 0 {
			spans, err := reg.LoadState(bytes.NewReader(c.Telemetry))
			if err != nil {
				return false, err
			}
			if len(spans) > 0 {
				c.Span = spans[len(spans)-1]
			}
		}
		ck = c
		return true, nil
	})
	return ck
}

// saveSurvey completes a survey's per-round checkpoint — fingerprint,
// engine snapshot, and (when instrumented) telemetry state — and
// writes it.
func (d *CheckpointDir) saveSurvey(fp CheckpointFingerprint, c *Checkpoint, s *Survey, reg *telemetry.Registry) {
	c.Fingerprint = fp
	var eng bytes.Buffer
	err := s.Eco.Net.Snapshot(&eng)
	c.Engine = eng.Bytes()
	if err == nil && reg != nil {
		var tb bytes.Buffer
		err = reg.SaveState(&tb)
		c.Telemetry = tb.Bytes()
	}
	if err == nil {
		err = d.WriteFile(fmt.Sprintf("ckpt-%d-%02d.rckp", c.Phase, c.Done), c.Encode())
	}
	d.saved(err)
}

// LatestSearch returns the newest encoded search state whose
// fingerprint matches fp, or nil when the search starts cold.
func (d *CheckpointDir) LatestSearch(fp optimize.Fingerprint) []byte {
	var blob []byte
	d.latest(".ropt", func(data []byte) (bool, error) {
		got, _, err := optimize.DecodeState(data)
		if err != nil || got != fp {
			return false, err
		}
		blob = data
		return true, nil
	})
	return blob
}

func (d *CheckpointDir) saveSearch(generation int, state []byte) {
	d.saved(d.WriteFile(fmt.Sprintf("search-%04d.ropt", generation), state))
}
