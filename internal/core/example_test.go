package core_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// A run is one JobOptions value, the same one the CLI flags and
// resurveyd's submissions produce. A Job runs it through the kind's
// method; each method returns the kind's typed result.
func ExampleJob() {
	reg := telemetry.New() // nil runs without telemetry
	job := &core.Job{
		Kind: "sweep",
		Options: core.JobOptions{
			Small: true, Seed: 7, Workers: 8, Faults: 0.5, Incremental: true,
		},
		Out: os.Stdout, // the run's headline lines
	}
	if err := job.Check(); err != nil {
		log.Fatal(err)
	}
	pts, err := job.RunSweep(context.Background(), reg, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := pts.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Below the job methods, JobOptions.Pipeline hands out the run's wired
// components: here the two-experiment survey, built with the job's
// seed, engine mode, worker bound, and registry.
func ExampleJobOptions_Pipeline() {
	opts := core.JobOptions{Small: true, Seed: 7, Workers: 8, Incremental: true}
	s := opts.Pipeline(telemetry.New()).NewSurvey()
	s.RunBoth()
	fmt.Println(core.Summarize(s.Eco, s.Internet2).Table())
}
