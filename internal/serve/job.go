package serve

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// JobSpec is a submission body: who is asking, what to run, and the
// run configuration. Options reuses cliconf.JobOptions so the server
// validates a submission exactly as the CLI validates its flags.
type JobSpec struct {
	// Tenant names the submitting tenant for rate limiting; empty maps
	// to "default".
	Tenant string `json:"tenant,omitempty"`
	// Kind is "survey" (default), "sweep", "workload", "scenario", or
	// "optimize".
	Kind string `json:"kind,omitempty"`
	// Options configures the pipeline (fields as the CLI flags).
	Options cliconf.JobOptions `json:"options"`
	// TimeoutSeconds, when positive, deadlines the job; on expiry it
	// stops at the next round boundary and is marked failed.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// Validate normalizes and rejects a submission: the kind's checks and
// the identical JobOptions.Validate the CLI runs on its flags.
func (sp *JobSpec) Validate() error {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.Kind == "" {
		sp.Kind = "survey"
	}
	if sp.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds %v out of range: want >= 0", sp.TimeoutSeconds)
	}
	return sp.job().Check()
}

func (sp *JobSpec) job() *core.Job { return &core.Job{Kind: sp.Kind, Options: sp.Options} }

// Job is one submitted job. All mutable fields are guarded by the
// owning Server's mu; the runner goroutine mutates only through
// Server methods.
type Job struct {
	ID   string
	Seq  uint64
	Spec JobSpec

	state  State
	errMsg string
	output []byte
	// cancelled marks a DELETE-requested stop, distinguishing a user
	// cancellation from a deadline expiry when the context error
	// surfaces.
	cancelled bool
	cancel    context.CancelFunc
	// done closes when the runner finishes (any terminal state) or the
	// emulated crash abandons the job.
	done chan struct{}
	// events is the job's full event history (JSON lines); subs receive
	// appends live. Subscribers replay history first, so a late
	// subscriber sees the same stream as an early one.
	events []string
	subs   map[chan string]struct{}
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID      string             `json:"id"`
	Tenant  string             `json:"tenant"`
	Kind    string             `json:"kind"`
	State   string             `json:"state"`
	Error   string             `json:"error,omitempty"`
	Options cliconf.JobOptions `json:"options"`
}

func (j *Job) status() JobStatus {
	return JobStatus{
		ID:      j.ID,
		Tenant:  j.Spec.Tenant,
		Kind:    j.Spec.Kind,
		State:   j.state.String(),
		Error:   j.errMsg,
		Options: j.Spec.Options,
	}
}

func (j *Job) record() *jobRecord {
	return &jobRecord{Seq: j.Seq, Spec: j.Spec, State: j.state, Error: j.errMsg, Output: j.output}
}

// dispatch is the production runJob: the job's kind from the core
// registry, with its checkpoints in the job's directory (always
// resumed from, so a recovered job continues where it stopped), its
// progress streamed as events, and its output rendered as the
// service's JSON document.
func (s *Server) dispatch(ctx context.Context, j *Job) ([]byte, error) {
	reg := telemetry.New()
	crashLeft := s.crashAfterCheckpoints
	ckd := &core.CheckpointDir{
		Path:   filepath.Join(s.cfg.DataDir, j.ID),
		Resume: true,
		Saved: func(err error) {
			if err != nil {
				s.reg.Counter("serve_checkpoint_errors_total").Inc()
				return
			}
			s.checkpointed(j)
			if s.crashAfterCheckpoints > 0 {
				crashLeft--
				if crashLeft == 0 {
					panic(errCrash)
				}
			}
		},
		Resumed: func() { s.reg.Counter("serve_jobs_resumed_total").Inc() },
		Corrupt: func(n int) { s.reg.Counter("serve_checkpoints_corrupt_total").Add(int64(n)) },
	}
	job := j.Spec.job()
	job.Progress = func(p core.JobProgress) {
		if p.Optimize != nil {
			s.publish(j, event{Type: "generation", Optimize: p.Optimize})
		} else {
			s.publish(j, event{Type: "round", Phase: p.Phase, Round: p.Round})
		}
	}
	rep, err := job.Run(ctx, reg, ckd)
	if err != nil {
		return nil, err
	}
	return core.Document(rep, reg, j.Spec.Options)
}

// --- progress events ---

// event is one SSE payload: a round completing, an optimizer
// generation completing, or a state change.
type event struct {
	Type     string                 `json:"type"` // "round" | "generation" | "state"
	Phase    int                    `json:"phase,omitempty"`
	Round    *core.RoundProgress    `json:"round,omitempty"`
	Optimize *core.OptimizeProgress `json:"optimize,omitempty"`
	State    string                 `json:"state,omitempty"`
}
