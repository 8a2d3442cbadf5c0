package vtime

import (
	"testing"

	"repro/internal/telemetry"
)

// TestEngineDispatchOrder schedules handlers out of order and requires
// (time, seq) dispatch with the clock at each handler's timestamp.
func TestEngineDispatchOrder(t *testing.T) {
	e := NewEngine(0)
	var got []int
	var times []Time
	rec := func(id int) Handler {
		return func(now Time) {
			got = append(got, id)
			times = append(times, now)
			if e.Now() != now {
				t.Errorf("handler %d: engine clock %d != handler time %d", id, e.Now(), now)
			}
		}
	}
	e.At(30, rec(2))
	e.At(10, rec(0))
	e.At(30, rec(3)) // same time as id 2, scheduled later: fires after
	e.At(20, rec(1))
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	if n := e.RunUntil(25); n != 2 {
		t.Fatalf("RunUntil(25) dispatched %d, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
	if n := e.RunUntil(100); n != 2 {
		t.Fatalf("RunUntil(100) dispatched %d, want 2", n)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("dispatch order %v", got)
		}
	}
	wantTimes := []Time{10, 20, 30, 30}
	for i := range times {
		if times[i] != wantTimes[i] {
			t.Fatalf("handler times %v, want %v", times, wantTimes)
		}
	}
	if e.Dispatched() != 4 {
		t.Fatalf("Dispatched = %d, want 4", e.Dispatched())
	}
}

// TestEnginePastClamp schedules a handler in the past and requires it
// to fire at Now, never rewinding the clock.
func TestEnginePastClamp(t *testing.T) {
	e := NewEngine(50)
	var at Time = -1
	e.At(10, func(now Time) { at = now })
	e.RunUntil(60)
	if at != 50 {
		t.Fatalf("past handler fired at %d, want clamp to 50", at)
	}
}

// TestEngineCoupling requires the coupling hook to run before the
// clock reaches each new event time and again at the end of RunUntil,
// with contiguous (from, to] intervals.
func TestEngineCoupling(t *testing.T) {
	e := NewEngine(0)
	type iv struct{ from, to Time }
	var ivs []iv
	e.Coupling = func(from, to Time) { ivs = append(ivs, iv{from, to}) }
	fired := false
	e.At(10, func(now Time) {
		fired = true
		// At the handler's dispatch the external side must already be
		// coupled to its timestamp.
		if len(ivs) == 0 || ivs[len(ivs)-1].to != 10 {
			t.Errorf("coupling had not reached t=10 at dispatch: %v", ivs)
		}
	})
	e.RunUntil(25)
	if !fired {
		t.Fatal("handler did not fire")
	}
	want := []iv{{0, 10}, {10, 25}}
	if len(ivs) != len(want) {
		t.Fatalf("coupling intervals %v, want %v", ivs, want)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("coupling intervals %v, want %v", ivs, want)
		}
	}
}

// TestEngineHandlersSchedule requires handlers to be able to schedule
// further work, including at their own timestamp.
func TestEngineHandlersSchedule(t *testing.T) {
	e := NewEngine(0)
	var seq []Time
	e.At(5, func(now Time) {
		seq = append(seq, now)
		e.At(now, func(n2 Time) { seq = append(seq, n2) })   // same instant
		e.After(10, func(n2 Time) { seq = append(seq, n2) }) // later
	})
	e.RunUntil(100)
	want := []Time{5, 5, 15}
	if len(seq) != len(want) {
		t.Fatalf("fired at %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("fired at %v, want %v", seq, want)
		}
	}
}

// TestEngineMetrics requires the vtime_* instruments to record
// deterministic event counts.
func TestEngineMetrics(t *testing.T) {
	reg := telemetry.New()
	e := NewEngine(0)
	e.SetMetrics(reg)
	for i := 0; i < 5; i++ {
		e.At(Time(i+1), func(Time) {})
	}
	e.RunUntil(10)
	if v := reg.Counter("vtime_events_scheduled_total").Value(); v != 5 {
		t.Fatalf("scheduled counter = %d, want 5", v)
	}
	if v := reg.Counter("vtime_events_dispatched_total").Value(); v != 5 {
		t.Fatalf("dispatched counter = %d, want 5", v)
	}
	if v := reg.Counter("vtime_virtual_seconds_total").Value(); v != 10 {
		t.Fatalf("virtual seconds counter = %d, want 10", v)
	}
	if c := reg.Histogram("vtime_queue_depth").Count(); c != 5 {
		t.Fatalf("queue depth observations = %d, want 5", c)
	}
	if e.VirtualSeconds() != 10 {
		t.Fatalf("VirtualSeconds = %v, want 10", e.VirtualSeconds())
	}
	if e.WallSeconds() < 0 {
		t.Fatalf("WallSeconds = %v", e.WallSeconds())
	}
	// The ratio is wall-time dependent (nondeterministic) but must be
	// non-negative and finite-by-construction.
	if r := e.SpeedupRatio(); r < 0 {
		t.Fatalf("SpeedupRatio = %v", r)
	}
}

// TestRoundScheduler requires quantization up to round boundaries and
// preserved intra-boundary ordering.
func TestRoundScheduler(t *testing.T) {
	e := NewEngine(0)
	r := &RoundScheduler{Gap: 100, Engine: e}
	var got []Time
	var order []int
	rec := func(id int) Handler {
		return func(now Time) { got = append(got, now); order = append(order, id) }
	}
	r.At(1, rec(0))   // -> 100
	r.At(99, rec(1))  // -> 100, after id 0
	r.At(100, rec(2)) // boundary stays
	r.At(101, rec(3)) // -> 200
	// RunUntil quantizes 150 up to the 200 boundary, so all four fire.
	if n := r.RunUntil(150); n != 4 {
		t.Fatalf("RunUntil(150) dispatched %d, want 4", n)
	}
	want := []Time{100, 100, 100, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order %v", order)
		}
	}
	if r.Now() != e.Now() {
		t.Fatalf("Now mismatch: %d vs %d", r.Now(), e.Now())
	}
	if zero := (&RoundScheduler{Gap: 0, Engine: e}).Quantize(123); zero != 123 {
		t.Fatalf("Gap 0 quantize = %d, want identity", zero)
	}
}

// TestEngineDone: closing Done from inside a handler stops RunUntil
// before the next dispatch, leaving the rest queued and the clock at
// the last dispatched event.
func TestEngineDone(t *testing.T) {
	e := NewEngine(0)
	done := make(chan struct{})
	e.Done = done
	fired := 0
	for _, at := range []Time{10, 20, 30} {
		e.At(at, func(Time) {
			fired++
			if fired == 2 {
				close(done)
			}
		})
	}
	if n := e.RunUntil(100); n != 2 {
		t.Fatalf("RunUntil dispatched %d after Done closed, want 2", n)
	}
	if e.Now() != 20 || e.Pending() != 1 {
		t.Fatalf("clock %d, pending %d; want 20 and 1", e.Now(), e.Pending())
	}
}
