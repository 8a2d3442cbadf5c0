package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/faults"
)

// scenarioFingerprint flattens the comparable portion of a sweep into
// one string, so matrix variants can be diffed byte for byte.
func scenarioFingerprint(pts []ScenarioPoint) string {
	out := ""
	for _, pt := range pts {
		out += fmt.Sprintf("a=%.2f base=%v dep=%d pol=%d clean=%d unreach=%d leak=%d/%d mid=%016x end=%016x\n",
			pt.Adoption, pt.Baseline, pt.Deployed, pt.PollutedASes, pt.CleanASes,
			pt.UnreachableASes, pt.LeakAffectedASes, pt.LeakedRoutes,
			pt.MidSignature, pt.EndDigest)
	}
	return out
}

// TestScenarioDifferentialMatrix is the differential harness pinning
// the tentpole's headline claim: a forged-origin hijack of the
// measurement prefix under full ROV deployment (every AS holds the
// covering ROA and drops invalids at import) is byte-equal to a
// no-hijack baseline — mid-attack (attacker's own router aside) and at
// quiescence. The claim must hold identically on every engine variant:
// full vs incremental recomputation, map vs arena RIB layout, workers
// 1 vs 4.
func TestScenarioDifferentialMatrix(t *testing.T) {
	var prints []string
	var labels []string
	for _, incremental := range []bool{false, true} {
		for _, arena := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				opts := DefaultScenarioSweepOptions(faults.ScenarioHijack)
				opts.Adoptions = []float64{0, 1}
				opts.Incremental = incremental
				opts.Survey.Topology.CompactRIB = arena
				opts.Workers = workers
				pts, err := RunScenarioSweepContext(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(pts) != 3 {
					t.Fatalf("want baseline + 2 adoption points, got %d", len(pts))
				}
				base, none, full := pts[0], pts[1], pts[2]
				if !base.Baseline || none.Adoption != 0 || full.Adoption != 1 {
					t.Fatalf("point order wrong: %+v", pts)
				}
				if none.PollutedASes == 0 {
					t.Error("hijack with no ROV polluted nobody")
				}
				if full.PollutedASes != 0 || full.UnreachableASes != 0 {
					t.Errorf("full ROV left pollution: polluted=%d unreachable=%d",
						full.PollutedASes, full.UnreachableASes)
				}
				if full.MidSignature != base.MidSignature {
					t.Errorf("full ROV mid signature differs from baseline: %016x vs %016x",
						full.MidSignature, base.MidSignature)
				}
				if full.EndDigest != base.EndDigest {
					t.Errorf("full ROV end digest differs from baseline: %016x vs %016x",
						full.EndDigest, base.EndDigest)
				}
				prints = append(prints, scenarioFingerprint(pts))
				labels = append(labels, fmt.Sprintf("incremental=%v arena=%v workers=%d", incremental, arena, workers))
			}
		}
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Errorf("variant %s differs from %s:\n%s\nvs\n%s",
				labels[i], labels[0], prints[i], prints[0])
		}
	}
}

// TestScenarioROVMonotonicityProperty asserts the deployment-nesting
// property end to end: because rpki.DeploySet draws each AS once from
// a fraction-independent stream, the deployed sets are nested in the
// adoption fraction, so the polluted-AS count is non-increasing (and
// the deployed count non-decreasing) along the whole ladder.
func TestScenarioROVMonotonicityProperty(t *testing.T) {
	opts := DefaultScenarioSweepOptions(faults.ScenarioHijack)
	pts, err := RunScenarioSweepContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var last *ScenarioPoint
	for i := range pts {
		pt := &pts[i]
		if pt.Baseline {
			continue
		}
		if last != nil {
			if pt.Deployed < last.Deployed {
				t.Errorf("deployed count fell: %d at %.2f after %d at %.2f",
					pt.Deployed, pt.Adoption, last.Deployed, last.Adoption)
			}
			if pt.PollutedASes > last.PollutedASes {
				t.Errorf("pollution grew with adoption: %d at %.2f after %d at %.2f",
					pt.PollutedASes, pt.Adoption, last.PollutedASes, last.Adoption)
			}
		}
		last = pt
	}
	if last == nil || last.Adoption != 1 {
		t.Fatalf("ladder did not end at adoption 1: %+v", pts)
	}
	if last.PollutedASes != 0 {
		t.Errorf("full adoption left %d polluted ASes", last.PollutedASes)
	}
}

// TestScenarioLeakContainmentProperty pins what ROV does NOT do: a
// route leak keeps the true origin on every leaked path, so the
// routes stay RPKI-valid and every adoption point sees the identical
// leak — identical census, identical mid-window network state,
// identical end state. And the damage is contained to the leaker's
// catchment: any AS whose best route for the measurement prefix
// changed mid-leak routes through the leaker; uninvolved ASes keep
// their baseline routes.
func TestScenarioLeakContainmentProperty(t *testing.T) {
	opts := DefaultScenarioSweepOptions(faults.ScenarioLeak)
	pts, err := RunScenarioSweepContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var first *ScenarioPoint
	for i := range pts {
		pt := &pts[i]
		if pt.Baseline {
			continue
		}
		if first == nil {
			first = pt
			if pt.LeakAffectedASes == 0 || pt.LeakedRoutes == 0 {
				t.Fatalf("leak affected nobody: %+v", pt)
			}
			continue
		}
		if pt.LeakAffectedASes != first.LeakAffectedASes || pt.LeakedRoutes != first.LeakedRoutes {
			t.Errorf("ROV %.2f changed the leak census: %d/%d vs %d/%d",
				pt.Adoption, pt.LeakAffectedASes, pt.LeakedRoutes,
				first.LeakAffectedASes, first.LeakedRoutes)
		}
		if pt.MidSignature != first.MidSignature {
			t.Errorf("ROV %.2f changed the mid-leak network state: %016x vs %016x",
				pt.Adoption, pt.MidSignature, first.MidSignature)
		}
		if pt.EndDigest != first.EndDigest {
			t.Errorf("ROV %.2f changed the post-leak end state: %016x vs %016x",
				pt.Adoption, pt.EndDigest, first.EndDigest)
		}
	}

	// Catchment containment: run baseline and leak to the mid-leak
	// instant and require every changed measurement-prefix route to
	// traverse the leaker.
	base := runToLeakMid(t, opts, false)
	leak := runToLeakMid(t, opts, true)
	l := leak.sched.Leaks[0]
	for _, info := range base.s.Eco.ASes {
		if info.AS == l.Leaker {
			continue
		}
		rb := base.s.Eco.Net.Speaker(info.Router).Best(base.s.Eco.MeasPrefix)
		rl := leak.s.Eco.Net.Speaker(info.Router).Best(leak.s.Eco.MeasPrefix)
		same := (rb == nil && rl == nil) ||
			(rb != nil && rl != nil && rb.From == rl.From &&
				rb.LocalPref == rl.LocalPref && rb.Path.Equal(rl.Path))
		if same {
			continue
		}
		if rl == nil || !rl.Path.Contains(l.Leaker) {
			t.Errorf("AS %v rerouted the measurement prefix around the leaker: base=%v leak=%v",
				info.AS, rb, rl)
		}
	}
}

type leakMidRun struct {
	s     *Survey
	sched *faults.Schedule
}

// runToLeakMid replays the sweep's experiment cadence but freezes the
// network at the mid-leak measurement instant, so the test can inspect
// per-AS routes rather than just digests.
func runToLeakMid(t *testing.T, opts ScenarioSweepOptions, inject bool) leakMidRun {
	t.Helper()
	s := NewSurvey(opts.Survey)
	s.SetIncremental(opts.Incremental)
	s.Workers = 1
	s.Prober.Workers = 1
	start := bgp.Time(9 * 3600)
	x := NewInternet2Experiment(s.Eco, s.World, s.Prober, s.Sel, start)
	x.Workers = 1
	window := faults.Window{
		Start: start,
		End:   start + bgp.Time(len(Schedule())+1)*x.Cfg.RoundGap,
	}
	sched, err := faults.GenerateScenario(s.Eco, window, opts.Scenario, opts.ScenarioSeed)
	if err != nil {
		t.Fatal(err)
	}
	l := sched.Leaks[0]
	mid := l.From + (l.To-l.From)/2
	inner := func(net *bgp.Network, to bgp.Time) { net.Run(to) }
	if inject {
		inner = faults.NewInjector(sched).Advance
	}
	frozen := false
	x.Cfg.Advance = func(net *bgp.Network, to bgp.Time) {
		if frozen {
			return
		}
		if to >= mid {
			inner(net, mid)
			frozen = true
			return
		}
		inner(net, to)
	}
	if _, err := x.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return leakMidRun{s, sched}
}

// TestScenarioInjectorCommutesProperty asserts two permutation
// invariances of the injector. First, advance granularity: driving the
// same schedule in one Advance call or in many fine-grained steps must
// converge to the identical network state. Second, schedule
// composition: a merged schedule (session faults + hijack) must equal
// two independent injectors applying the same actions in lockstep —
// the hijack announce/withdraw commutes with disjoint session events.
func TestScenarioInjectorCommutesProperty(t *testing.T) {
	type world struct {
		s   *Survey
		hij *faults.Schedule
		ses []faults.SessionFault
		end bgp.Time
	}
	build := func() world {
		s := NewSurvey(SmallSurveyOptions())
		s.SetIncremental(true)
		net := s.Eco.Net
		net.RunToQuiescence()
		w := faults.Window{Start: net.Now(), End: net.Now() + 7200}
		hij, err := faults.GenerateScenario(s.Eco, w, faults.ScenarioHijack, 7)
		if err != nil {
			t.Fatal(err)
		}
		gen := faults.Generate(s.Eco, w, faults.Config{Seed: 11, Intensity: 0.3})
		// Commutation needs disjoint actors: drop any session fault
		// touching the hijacker's router.
		att := hij.Hijacks[0].Router
		var ses []faults.SessionFault
		for _, sf := range gen.Sessions {
			if sf.A != att && sf.B != att {
				ses = append(ses, sf)
			}
		}
		if len(ses) == 0 {
			t.Fatal("no disjoint session faults generated; pick another seed")
		}
		return world{s, hij, ses, w.End}
	}

	variants := []struct {
		name string
		run  func(w world)
	}{
		{"merged-coarse", func(w world) {
			merged := *w.hij
			merged.Sessions = w.ses
			inj := faults.NewInjector(&merged)
			inj.Advance(w.s.Eco.Net, w.end)
			inj.Finish(w.s.Eco.Net)
		}},
		{"merged-fine", func(w world) {
			merged := *w.hij
			merged.Sessions = w.ses
			inj := faults.NewInjector(&merged)
			for to := w.hij.Window.Start; to < w.end; to += 300 {
				inj.Advance(w.s.Eco.Net, to)
			}
			inj.Advance(w.s.Eco.Net, w.end)
			inj.Finish(w.s.Eco.Net)
		}},
		{"split-lockstep", func(w world) {
			sesOnly := &faults.Schedule{Window: w.hij.Window, Sessions: w.ses}
			hijOnly := w.hij
			a, b := faults.NewInjector(sesOnly), faults.NewInjector(hijOnly)
			step := func(to bgp.Time, flip bool) {
				if flip {
					b.Advance(w.s.Eco.Net, to)
					a.Advance(w.s.Eco.Net, to)
					return
				}
				a.Advance(w.s.Eco.Net, to)
				b.Advance(w.s.Eco.Net, to)
			}
			flip := false
			for to := w.hij.Window.Start; to < w.end; to += 300 {
				step(to, flip)
				flip = !flip
			}
			step(w.end, flip)
			a.Finish(w.s.Eco.Net)
			b.Finish(w.s.Eco.Net)
		}},
	}
	digests := make([]uint64, len(variants))
	for i, v := range variants {
		w := build()
		v.run(w)
		w.s.Eco.Net.RunToQuiescence()
		digests[i] = ribDigest(w.s.Eco)
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Errorf("variant %s end state %016x differs from %s %016x",
				variants[i].name, digests[i], variants[0].name, digests[0])
		}
	}
}
