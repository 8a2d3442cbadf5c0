package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the daemon: with RESURVEYD_TEST_MAIN set, the
// test binary runs main() on its command-line arguments instead of the
// tests, so TestSIGTERMRightAfterStart can signal a real process.
func TestMain(m *testing.M) {
	if os.Getenv("RESURVEYD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-data-dir", "/tmp/jobs"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Addr != "localhost:8037" || o.MaxJobs != 4 || o.Burst != 5 || o.DrainTimeout != 30*time.Second {
		t.Errorf("defaults = %+v", o)
	}

	o, err = parseFlags([]string{
		"-data-dir", "/tmp/jobs", "-addr", ":9000", "-max-jobs", "8",
		"-mem-watermark-mb", "512", "-rate", "0.5", "-burst", "10",
		"-drain-timeout", "5s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Addr != ":9000" || o.MaxJobs != 8 || o.MemMB != 512 ||
		o.Rate != 0.5 || o.Burst != 10 || o.DrainTimeout != 5*time.Second {
		t.Errorf("parsed = %+v", o)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{}, "-data-dir is required"},
		{[]string{"-data-dir", "d", "-max-jobs", "-1"}, "-max-jobs"},
		{[]string{"-data-dir", "d", "-mem-watermark-mb", "-1"}, "-mem-watermark-mb"},
		{[]string{"-data-dir", "d", "-rate", "-1"}, "-rate"},
		{[]string{"-data-dir", "d", "-burst", "-1"}, "-burst"},
	}
	for _, c := range cases {
		_, err := parseFlags(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseFlags(%v) = %v, want error containing %q", c.args, err, c.want)
		}
	}
}

// TestRunDrainsOnEarlyCancel: the shutdown signal arrives the moment
// /healthz first answers; run must still drain and return nil. The
// signal context exists before run starts anything, so no window lets
// a signal kill the daemon undrained.
func TestRunDrainsOnEarlyCancel(t *testing.T) {
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{Addr: addr, DataDir: t.TempDir(), DrainTimeout: 10 * time.Second})
	}()
	awaitHealthz(t, addr)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v after early cancel, want nil (drained)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// awaitHealthz polls /healthz until it answers.
func awaitHealthz(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never answered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSIGTERMRightAfterStart runs the daemon as a child process and
// sends SIGTERM the moment /healthz first answers: the process must
// drain and exit 0. This covers the handler ordering in main, which
// TestRunDrainsOnEarlyCancel (a cancelled context, no signal) cannot.
func TestSIGTERMRightAfterStart(t *testing.T) {
	addr := freeAddr(t)
	cmd := exec.Command(os.Args[0], "-addr", addr, "-data-dir", t.TempDir(), "-drain-timeout", "10s")
	cmd.Env = append(os.Environ(), "RESURVEYD_TEST_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	awaitHealthz(t, addr)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited %v after an early SIGTERM, want 0 (drained); output:\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon still running 15s after SIGTERM; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "resurveyd: clean exit") {
		t.Fatalf("no clean-exit line; output:\n%s", out.String())
	}
}
