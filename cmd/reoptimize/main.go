// Command reoptimize searches the per-AS traffic-engineering
// configuration space of the measurement announcement: export prepend
// depths, import localpref overrides, and action communities on the
// R&E and commodity origins, scored against a target objective. Every
// candidate is evaluated by rewinding a converged pristine snapshot
// and pushing the candidate's delta through the incremental engine
// path, so a search of N candidates pays for one initial convergence
// instead of N.
//
// Usage:
//
//	reoptimize -objective SPEC [-budget N] [-strategy S]
//	           [-small] [-scale T] [-seed N] [-workers N] [-incremental]
//	           [-snapshot-dir dir] [-resume]
//	           [-manifest out.json] [-metrics] [-zerotime]
//
// -objective picks the target: "catchment:re=0.4" aims the per-AS
// catchment split (fraction of ASes routing to the measurement prefix
// over the R&E plane) at 0.4; "probe:re=0.5,commodity=0.4,loss=0.1"
// aims the probe-round classification distribution. -budget bounds
// the candidate evaluations (default 32); -strategy picks hillclimb
// (seeded hill-climb with restarts, the default) or evolve (a
// (mu+lambda) evolutionary loop). Candidates within a generation are
// evaluated concurrently on -workers worlds; output is byte-identical
// at any width.
//
// Checkpoint/restart: -snapshot-dir writes the encoded search state
// after every generation; -resume continues from the newest state
// there whose fingerprint (seed, objective, strategy, budget) matches,
// skipping the already-evaluated generations.
//
// Observability: -manifest/-metrics/-zerotime behave exactly as in
// resurvey. Per-generation progress goes to stderr so stdout stays
// byte-comparable between runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliconf"
	"repro/internal/core"
)

func main() {
	// Like reprobe, reoptimize defaults to the reduced-scale ecosystem:
	// a search multiplies world evaluations, so full scale is opt-in.
	cfg := cliconf.Config{Small: true, Seed: 1, Incremental: true, Budget: 32}
	cliconf.Register(flag.CommandLine, &cfg,
		cliconf.FlagSmall|cliconf.FlagSeed|cliconf.FlagWorkers|cliconf.FlagIncremental|
			cliconf.FlagObservability|cliconf.FlagOptimize|cliconf.FlagSnapshot)
	flag.Parse()

	if err := validate(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "reoptimize:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "reoptimize:", err)
		os.Exit(1)
	}
}

func validate(cfg cliconf.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Objective == "" {
		return fmt.Errorf("-objective is required (catchment:re=<frac> or probe:re=,commodity=,loss=)")
	}
	return nil
}

// manifestOptions is the run configuration recorded in the manifest.
// The worker count is deliberately absent: the manifest, like stdout,
// is byte-identical at any -workers value.
type manifestOptions struct {
	Small       bool   `json:"small"`
	Scale       string `json:"scale,omitempty"`
	Incremental bool   `json:"incremental"`
	Objective   string `json:"objective"`
	Strategy    string `json:"strategy"`
	Budget      int    `json:"budget"`
}

func run(w io.Writer, cfg cliconf.Config) error {
	reg := cfg.NewRegistry()
	job := &core.Job{Options: cfg.Job(), Out: w}
	job.Progress = func(p core.JobProgress) {
		g := p.Optimize
		fmt.Fprintf(os.Stderr, "reoptimize: generation %d: %d/%d evaluated, best %.6f (%s)\n",
			g.Generation, g.Evaluated, g.Budget, g.BestScore, g.BestConfig)
	}
	res, err := job.RunOptimize(context.Background(), reg, cfg.CheckpointDir("reoptimize", reg))
	if err != nil {
		return err
	}
	if err := res.WriteText(w); err != nil {
		return err
	}
	if err := cfg.WriteManifest(reg, manifestOptions{
		Small:       cfg.Small,
		Scale:       cfg.Scale,
		Incremental: cfg.Incremental,
		Objective:   res.Objective,
		Strategy:    res.Strategy,
		Budget:      cfg.Budget,
	}); err != nil {
		return err
	}
	return cfg.DumpMetrics(w, reg)
}
