package cliconf

import (
	"flag"
	"math"
	"testing"
)

func TestRegisterKeepsFieldDefaults(t *testing.T) {
	// Commands seed the Config with their historical defaults before
	// Register; parsing no flags must leave those values intact.
	c := Config{Small: true, Seed: 7, Incremental: true}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagAll)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !c.Small || c.Seed != 7 || c.Workers != 0 || c.Faults != 0 || !c.Incremental {
		t.Errorf("defaults clobbered: %+v", c)
	}
}

func TestRegisterParsesSharedFlags(t *testing.T) {
	c := Config{Incremental: true} // -incremental=false must override the default
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagAll)
	args := []string{
		"-small", "-seed", "42", "-workers", "8", "-faults", "0.5",
		"-incremental=false", "-manifest", "m.json", "-metrics", "-zerotime",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Config{Small: true, Seed: 42, Workers: 8, Faults: 0.5,
		Incremental: false, Manifest: "m.json", Metrics: true, ZeroTime: true}
	if c != want {
		t.Errorf("parsed %+v, want %+v", c, want)
	}
}

func TestRegisterSubsets(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagSeed|FlagWorkers)
	for _, name := range []string{"seed", "workers"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	for _, name := range []string{"small", "faults", "incremental", "manifest", "metrics", "zerotime"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s registered but not requested", name)
		}
	}
}

func TestValidate(t *testing.T) {
	for _, bad := range []Config{
		{Faults: -0.1},
		{Faults: 1.5},
		{Faults: math.NaN()},
		{Faults: math.Inf(1)},
		{Workers: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
	for _, good := range []Config{
		{},
		{Faults: 0.5, Workers: 8},
		{Faults: 1},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%+v) rejected: %v", good, err)
		}
	}
}

// TestJobValidationParity pins the CLI/server contract: a Config and
// the JobOptions extracted from it accept and reject identically (with
// the same message), so a job submission resurveyd rejects is exactly
// one the flags would reject.
func TestJobValidationParity(t *testing.T) {
	for _, c := range []Config{
		{},
		{Faults: -0.1},
		{Faults: 1.5},
		{Faults: math.NaN()},
		{Workers: -1},
		{Small: true, Seed: 7, Workers: 8, Faults: 0.5, Incremental: true},
	} {
		cfgErr, jobErr := c.Validate(), c.Job().Validate()
		if (cfgErr == nil) != (jobErr == nil) {
			t.Errorf("Config(%+v): Validate=%v but Job().Validate=%v", c, cfgErr, jobErr)
		} else if cfgErr != nil && cfgErr.Error() != jobErr.Error() {
			t.Errorf("Config(%+v): messages diverge: %q vs %q", c, cfgErr, jobErr)
		}
	}
}

func TestJobPipelineWiring(t *testing.T) {
	j := JobOptions{Small: true, Seed: 5, Workers: 3, Faults: 0.25, Incremental: true}
	pl := j.Pipeline(nil)
	fo := pl.FaultSweepOptions()
	if pl.Seed() != 5 || fo.Workers != 3 || fo.Intensities[len(fo.Intensities)-1] != 0.25 || !fo.Incremental {
		t.Errorf("pipeline carries seed=%d workers=%d faults=%v incremental=%v",
			pl.Seed(), fo.Workers, fo.Intensities, fo.Incremental)
	}
}

func TestScaleFlag(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagSmall)
	if err := fs.Parse([]string{"-scale", "internet"}); err != nil {
		t.Fatal(err)
	}
	if c.Scale != "internet" {
		t.Fatalf("parsed scale %q", c.Scale)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("-scale internet rejected: %v", err)
	}
	if err := (Config{Scale: "planet"}).Validate(); err == nil {
		t.Error("-scale planet accepted")
	}
	if err := (Config{Small: true, Scale: "paper"}).Validate(); err == nil {
		t.Error("-small with -scale paper accepted")
	}
	if err := (Config{Small: true, Scale: "small"}).Validate(); err != nil {
		t.Errorf("-small with agreeing -scale small rejected: %v", err)
	}
	// The tier must reach the pipeline's topology configuration and
	// override -small (Job round-trips the field like the server path).
	pl := Config{Scale: "paper"}.Job().Pipeline(nil)
	if got := pl.SurveyOptions().Topology; got.MembersUS == 0 || got.CompactRIB {
		t.Errorf("paper scale not installed: %+v", got)
	}
	pl = Config{Scale: "internet"}.Job().Pipeline(nil)
	if got := pl.SurveyOptions().Topology; !got.CompactRIB || !got.DensePrefixes {
		t.Errorf("internet scale not installed: %+v", got)
	}
}

func TestOptimizeFlags(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, &c, FlagOptimize)
	args := []string{"-objective", "catchment:re=0.3", "-budget", "24", "-strategy", "evolve"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if c.Objective != "catchment:re=0.3" || c.Budget != 24 || c.Strategy != "evolve" {
		t.Fatalf("parsed %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid optimize config rejected: %v", err)
	}
	for _, bad := range []Config{
		{Objective: "catchment"},                            // missing re=
		{Objective: "catchment:re=1.5"},                     // out of range
		{Objective: "summit:re=0.5"},                        // unknown kind
		{Objective: "catchment:re=0.5", Strategy: "anneal"}, // unknown strategy
		{Objective: "catchment:re=0.5", Budget: -1},         // negative budget
		{Budget: 10},         // -budget without -objective
		{Strategy: "evolve"}, // -strategy without -objective
		{Objective: "catchment:re=0.5", Workload: "update-storm"},
		{Objective: "catchment:re=0.5", Scenario: "hijack"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
	// The fields must reach the pipeline (Job round-trips them like the
	// server path does).
	pl := Config{Objective: "probe:re=0.5,commodity=0.5,loss=0", Budget: 12, Strategy: "evolve"}.Job().Pipeline(nil)
	opts := pl.OptimizeOptions()
	if opts.Objective != "probe:re=0.5,commodity=0.5,loss=0" || opts.Budget != 12 || opts.Strategy != "evolve" {
		t.Errorf("OptimizeOptions not threaded: %+v", opts)
	}
}

func TestNewRegistryNilWhenUnobserved(t *testing.T) {
	var c Config
	if c.NewRegistry() != nil {
		t.Error("registry allocated with no -manifest/-metrics")
	}
	if (Config{Manifest: "m.json"}).NewRegistry() == nil {
		t.Error("no registry with -manifest set")
	}
	if (Config{Metrics: true}).NewRegistry() == nil {
		t.Error("no registry with -metrics set")
	}
}

func TestPipelineWiring(t *testing.T) {
	c := Config{Small: true, Seed: 5, Workers: 3, Faults: 0.25, Incremental: true}
	pl := c.Pipeline(nil)
	fo := pl.FaultSweepOptions()
	if pl.Seed() != 5 || fo.Workers != 3 || fo.Intensities[len(fo.Intensities)-1] != 0.25 || !fo.Incremental {
		t.Errorf("pipeline carries seed=%d workers=%d faults=%v incremental=%v",
			pl.Seed(), fo.Workers, fo.Intensities, fo.Incremental)
	}
	if pl.SurveyOptions().Topology.Seed != 5 {
		t.Errorf("survey topology seed = %d, want 5", pl.SurveyOptions().Topology.Seed)
	}
	// -incremental=false must reach the pipeline as the reference mode
	// even though the core sweep defaults are incremental.
	if pl := (Config{}).Pipeline(nil); pl.FaultSweepOptions().Incremental {
		t.Error("Config zero value did not select the full reference path")
	}
}
