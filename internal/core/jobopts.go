package core

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/optimize"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/vtime"
)

// JobOptions is the portable description of one pipeline run — the
// configuration fields with run semantics, separated from the CLI's
// front-end concerns (manifest paths, metrics dumps, checkpoint
// directories). The CLI flags map onto it via cliconf.Config.Job, and
// resurveyd job submissions unmarshal into it directly, so both front
// ends validate and construct a run through the identical path.
type JobOptions struct {
	Small bool `json:"small,omitempty"`
	// Scale names the topology size tier (small, paper, internet);
	// empty defers to Small. See topo.ParseScale.
	Scale       string  `json:"scale,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Faults      float64 `json:"faults,omitempty"`
	Incremental bool    `json:"incremental"`
	// Workload selects a named virtual-clock workload (see
	// WorkloadNames); empty runs the standard survey script.
	Workload string `json:"workload,omitempty"`
	// DurationSeconds bounds the workload's virtual horizon; 0 uses
	// the named workload's default.
	DurationSeconds int64 `json:"duration_seconds,omitempty"`
	// RoundMode quantizes the workload to round boundaries (the
	// compatibility scheduler) instead of event-granularity timers.
	RoundMode bool `json:"round_mode,omitempty"`
	// Scenario selects an adversarial scenario family (see
	// faults.ScenarioNames) swept over ROV adoption; empty disables.
	Scenario string `json:"scenario,omitempty"`
	// ROV is the RPKI route-origin-validation adoption fraction in
	// [0, 1]: the adoption-ladder cap for scenario sweeps, the
	// deployed fraction for plain and workload runs (0 = off).
	ROV float64 `json:"rov,omitempty"`
	// Objective selects a policy-optimization search run targeting the
	// given spec (see optimize.ParseSpec); empty disables.
	Objective string `json:"objective,omitempty"`
	// Budget bounds the search's candidate evaluations (0 scores only
	// the baseline configuration).
	Budget int `json:"budget,omitempty"`
	// Strategy names the searcher ("hillclimb" or "evolve"); empty
	// means hillclimb.
	Strategy string `json:"strategy,omitempty"`
}

// WorkloadOptions converts the job's workload fields into the run
// options (zero value when no workload is selected).
func (j JobOptions) WorkloadOptions() WorkloadOptions {
	return WorkloadOptions{
		Name:      j.Workload,
		Duration:  vtime.Time(j.DurationSeconds),
		RoundMode: j.RoundMode,
	}
}

// Validate rejects job values the pipeline cannot honour — the single
// check both the flag layer and the service's submission endpoint run,
// so a config the CLI rejects is rejected by the server with the same
// message, and vice versa.
func (j JobOptions) Validate() error {
	if math.IsNaN(j.Faults) || math.IsInf(j.Faults, 0) || j.Faults < 0 || j.Faults > 1 {
		return fmt.Errorf("-faults intensity %v out of range: want 0 (off) or a value in (0, 1]", j.Faults)
	}
	if j.Scale != "" {
		s, err := topo.ParseScale(j.Scale)
		if err != nil {
			return err
		}
		if j.Small && s != topo.ScaleSmall {
			return fmt.Errorf("-small conflicts with -scale %s", s)
		}
	}
	if j.Workers < 0 {
		return fmt.Errorf("-workers %d out of range: want >= 0 (0 = GOMAXPROCS)", j.Workers)
	}
	if j.Workload != "" && !KnownWorkload(j.Workload) {
		return fmt.Errorf("-workload %q unknown: want one of %v", j.Workload, WorkloadNames())
	}
	if j.DurationSeconds < 0 {
		return fmt.Errorf("-duration %d out of range: want >= 0 (0 = workload default)", j.DurationSeconds)
	}
	if j.DurationSeconds > 0 && j.Workload == "" {
		return fmt.Errorf("-duration requires -workload")
	}
	if j.Scenario != "" && !faults.KnownScenario(j.Scenario) {
		return fmt.Errorf("-scenario %q unknown: want one of %v", j.Scenario, faults.ScenarioNames())
	}
	if j.Scenario != "" && j.Workload != "" {
		return fmt.Errorf("-scenario conflicts with -workload (pick one run mode)")
	}
	if math.IsNaN(j.ROV) || math.IsInf(j.ROV, 0) || j.ROV < 0 || j.ROV > 1 {
		return fmt.Errorf("-rov fraction %v out of range: want a value in [0, 1]", j.ROV)
	}
	if j.Objective != "" {
		if _, err := optimize.ParseSpec(j.Objective); err != nil {
			return err
		}
		if j.Workload != "" {
			return fmt.Errorf("-objective conflicts with -workload (pick one run mode)")
		}
		if j.Scenario != "" {
			return fmt.Errorf("-objective conflicts with -scenario (pick one run mode)")
		}
	}
	if j.Budget < 0 {
		return fmt.Errorf("-budget %d out of range: want >= 0 (0 = score the baseline only)", j.Budget)
	}
	if j.Budget > 0 && j.Objective == "" {
		return fmt.Errorf("-budget requires -objective")
	}
	if j.Strategy != "" {
		if _, err := optimize.NewSearcher(j.Strategy); err != nil {
			return err
		}
		if j.Objective == "" {
			return fmt.Errorf("-strategy requires -objective")
		}
	}
	return nil
}

// Pipeline builds the Pipeline the job describes, wiring reg (nil is
// fine) as the metrics sink; extra options append after (and can thus
// override) the job-derived ones.
func (j JobOptions) Pipeline(reg *telemetry.Registry, extra ...PipelineOption) *Pipeline {
	opts := []PipelineOption{
		WithSeed(j.Seed),
		WithWorkers(j.Workers),
		WithFaults(j.Faults),
		WithScenario(j.Scenario),
		WithROV(j.ROV),
		WithIncremental(j.Incremental),
		WithMetrics(reg),
	}
	if j.Small {
		opts = append(opts, WithSmall())
	}
	if j.Scale != "" {
		// Validate has already vetted the name; ParseScale cannot fail
		// here, and WithScale overrides WithSmall inside the pipeline.
		if s, err := topo.ParseScale(j.Scale); err == nil {
			opts = append(opts, WithScale(s))
		}
	}
	if j.Objective != "" {
		opts = append(opts,
			WithObjective(j.Objective),
			WithBudget(j.Budget),
			WithStrategy(j.Strategy))
	}
	return NewPipeline(append(opts, extra...)...)
}
