// Command resurveyd is the resident survey service: a long-running
// HTTP server that accepts job submissions of every registered kind —
// survey, fault sweep, workload, scenario sweep, and policy
// optimization (JSON bodies mapping onto the same options as the CLI
// flags) — runs them concurrently with admission control and
// per-tenant rate limiting, checkpoints surveys after every
// configuration round and searches after every generation, and resumes
// every interrupted job after a restart with byte-equal output. See
// the README's "resurveyd" section for the endpoints and job schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/parallel"
	"repro/internal/serve"
)

type options struct {
	Addr         string
	DataDir      string
	MaxJobs      int
	MemMB        int
	Rate         float64
	Burst        float64
	DrainTimeout time.Duration
}

func parseFlags(args []string) (options, error) {
	o := options{}
	fs := flag.NewFlagSet("resurveyd", flag.ContinueOnError)
	fs.StringVar(&o.Addr, "addr", "localhost:8037", "listen address")
	fs.StringVar(&o.DataDir, "data-dir", "", "durable job-state directory (required): one subdirectory per job with its manifest and checkpoints")
	fs.IntVar(&o.MaxJobs, "max-jobs", 4, "admission cap on jobs in a non-terminal state; submissions beyond it are shed with 429 + Retry-After")
	fs.IntVar(&o.MemMB, "mem-watermark-mb", 0, "shed submissions while the live heap exceeds this many MiB (0 disables)")
	fs.Float64Var(&o.Rate, "rate", 0, "per-tenant token-bucket refill in submissions per second (0 disables per-tenant limiting)")
	fs.Float64Var(&o.Burst, "burst", 5, "per-tenant token-bucket capacity")
	fs.DurationVar(&o.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget: running jobs past it are abandoned to resume on the next start")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, o.validate()
}

func (o options) validate() error {
	if o.DataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	if o.MaxJobs < 0 {
		return fmt.Errorf("-max-jobs %d out of range: want >= 0 (0 disables the cap)", o.MaxJobs)
	}
	if o.MemMB < 0 {
		return fmt.Errorf("-mem-watermark-mb %d out of range: want >= 0 (0 disables)", o.MemMB)
	}
	if o.Rate < 0 || o.Burst < 0 {
		return fmt.Errorf("-rate %v / -burst %v out of range: want >= 0", o.Rate, o.Burst)
	}
	return nil
}

func main() {
	// Catch SIGTERM before anything starts: a signal that lands between
	// the listener coming up and a later Notify call would kill the
	// daemon undrained.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "resurveyd:", err)
		}
		os.Exit(2)
	}
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "resurveyd:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled (the signal), then drains.
func run(ctx context.Context, o options) error {
	srv, err := serve.New(serve.Config{
		DataDir: o.DataDir,
		Admission: serve.AdmissionConfig{
			MaxActive:    o.MaxJobs,
			MemWatermark: uint64(o.MemMB) << 20,
			RatePerSec:   o.Rate,
			Burst:        o.Burst,
		},
		DrainTimeout: o.DrainTimeout,
	})
	if err != nil {
		return err
	}
	parallel.SetPanicCounter(srv.Registry().Counter("parallel_worker_panics_total"))
	srv.Start()

	httpSrv := &http.Server{Addr: o.Addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	fmt.Printf("resurveyd listening on http://%s (data dir %s)\n", o.Addr, o.DataDir)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Drain jobs first (so event streams terminate and in-flight work
	// checkpoints), then close the listeners.
	fmt.Println("resurveyd: shutting down, draining jobs...")
	drainErr := srv.Shutdown(context.Background())
	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(closeCtx); err != nil {
		httpSrv.Close()
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Println("resurveyd: clean exit")
	return nil
}
