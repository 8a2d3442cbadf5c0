package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/perfbench/stats"
)

// child is one finished child process as the benchmark measured it.
type child struct {
	stdout []byte
	wall   time.Duration
	// marker is when the first stdout line with the wanted prefix
	// arrived (0 when none did).
	marker time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // p90 of the sampled resident set (see sampleRSS)
	maxMB  float64       // maximum resident set, from rusage
	err    error
}

// command prepares a benchmark binary with its stderr passed through.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, name), args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	// A child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runChild runs cmd to completion, timing it and noting when a stdout
// line starting with marker appears. With stopAtMarker it kills the
// process at that line instead of letting it finish (a set-up-only
// run).
func runChild(cmd *exec.Cmd, marker string, stopAtMarker bool) child {
	var out child
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		out.err = err
		return out
	}
	stop := make(chan struct{})
	samples := make(chan []float64, 1)
	go func() { samples <- sampleRSS(cmd.Process.Pid, stop) }()
	var buf bytes.Buffer
	r := bufio.NewReader(pipe)
	for {
		line, err := r.ReadBytes('\n')
		buf.Write(line)
		if marker != "" && out.marker == 0 && bytes.HasPrefix(line, []byte(marker)) {
			out.marker = time.Since(t0)
			if stopAtMarker {
				_ = cmd.Process.Kill()
				_, _ = io.Copy(io.Discard, r)
				break
			}
		}
		if err != nil {
			break
		}
	}
	werr := cmd.Wait()
	out.wall = time.Since(t0)
	close(stop)
	out.rssMB = p90(<-samples)
	out.stdout = buf.Bytes()
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			out.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			out.maxMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
		}
	}
	if !stopAtMarker {
		out.err = werr
	}
	if marker != "" && out.marker == 0 && out.err == nil {
		out.err = fmt.Errorf("no %q line on stdout", strings.TrimSpace(marker))
	}
	return out
}

// sampleRSS reads the resident set of process pid every 10 ms until
// stop closes. A process's maximum RSS hangs on when the garbage
// collector happened to run (and, for the daemon, on which jobs
// overlapped); the p90 of these samples is the steadier high-water
// mark the benchmark reports as peak_rss_mb.
func sampleRSS(pid int, stop <-chan struct{}) []float64 {
	path := fmt.Sprintf("/proc/%d/status", pid)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var mb []float64
	for {
		select {
		case <-stop:
			return mb
		case <-tick.C:
		}
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if _, rest, ok := bytes.Cut(b, []byte("VmRSS:")); ok {
			if f := strings.Fields(string(rest)); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					mb = append(mb, kb/1024)
				}
			}
		}
	}
}

// p90 is the 90th percentile of samples (0 when there are none).
func p90(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return stats.Quantile(s, 0.9)
}
