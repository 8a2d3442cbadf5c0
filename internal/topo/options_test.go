package topo

import (
	"fmt"
	"reflect"
	"testing"
)

func TestScaleStringParseRoundTrip(t *testing.T) {
	for _, s := range []Scale{ScaleSmall, ScalePaper, ScaleInternet} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	// Tolerant of case and whitespace (flag values arrive raw).
	if got, err := ParseScale("  Internet "); err != nil || got != ScaleInternet {
		t.Errorf("ParseScale tolerant form = %v, %v", got, err)
	}
	if _, err := ParseScale("planet"); err == nil {
		t.Error("ParseScale(planet) accepted")
	}
	if s := Scale(42).String(); s != "scale(42)" {
		t.Errorf("unknown scale String() = %q", s)
	}
}

func TestScaleConfig(t *testing.T) {
	if !reflect.DeepEqual(ScaleSmall.Config(), SmallConfig()) {
		t.Error("ScaleSmall.Config() != SmallConfig()")
	}
	if !reflect.DeepEqual(ScalePaper.Config(), DefaultConfig()) {
		t.Error("ScalePaper.Config() != DefaultConfig()")
	}
	ic := ScaleInternet.Config()
	if !reflect.DeepEqual(ic, InternetConfig()) {
		t.Error("ScaleInternet.Config() != InternetConfig()")
	}
	if !ic.CompactRIB || !ic.DensePrefixes {
		t.Error("InternetConfig must select the compact RIB and dense prefixes")
	}
	if err := ic.Validate(); err != nil {
		t.Errorf("InternetConfig does not validate: %v", err)
	}
}

func TestGenerateMatchesBuild(t *testing.T) {
	cfg := SmallConfig()
	cfg.Seed = 7
	want := Build(cfg)
	got := Generate(WithScale(ScaleSmall), WithSeed(7))

	if len(got.ASes) != len(want.ASes) || len(got.Prefixes) != len(want.Prefixes) {
		t.Fatalf("Generate: %d ASes / %d prefixes, Build: %d / %d",
			len(got.ASes), len(got.Prefixes), len(want.ASes), len(want.Prefixes))
	}
	for i := range want.ASes {
		w, g := want.ASes[i], got.ASes[i]
		if w.AS != g.AS || w.Router != g.Router || w.Policy != g.Policy {
			t.Fatalf("AS %d differs: Build %v/%v/%v, Generate %v/%v/%v",
				i, w.AS, w.Router, w.Policy, g.AS, g.Router, g.Policy)
		}
	}
	if !reflect.DeepEqual(got.CollectorPeerASes, want.CollectorPeerASes) {
		t.Error("collector peer sets differ between Generate and Build")
	}
}

func TestGenerateOptionOrder(t *testing.T) {
	// Options apply in order: a later WithSeed overrides the scale
	// tier's default seed; a later field edit overrides the tier's
	// layout.
	cfg := DefaultConfig()
	WithScale(ScaleInternet)(&cfg)
	WithSeed(99)(&cfg)
	cfg.CompactRIB = false
	if cfg.MembersUS != InternetConfig().MembersUS {
		t.Error("WithScale did not install the internet base")
	}
	if cfg.Seed != 99 || cfg.CompactRIB || !cfg.DensePrefixes {
		t.Errorf("overrides not applied: seed=%d compact=%v dense=%v",
			cfg.Seed, cfg.CompactRIB, cfg.DensePrefixes)
	}
	custom := SmallConfig()
	custom.MeanExtraPrefixes = 9
	cfg = DefaultConfig()
	WithConfig(custom)(&cfg)
	if cfg.MeanExtraPrefixes != 9 {
		t.Error("WithConfig did not replace the base configuration")
	}
}

// TestCompactRIBSameBestRoutes is the generator-level differential: the
// same small ecosystem built on the map layout and the arena layout
// must converge to identical best routes and forwarding decisions.
func TestCompactRIBSameBestRoutes(t *testing.T) {
	build := func(compact bool) *Ecosystem {
		cfg := SmallConfig()
		cfg.Seed = 11
		cfg.DensePrefixes = true
		cfg.CompactRIB = compact
		e := Build(cfg)
		e.Net.Originate(e.MeasCommodity.Router, e.MeasPrefix)
		e.Net.Originate(e.Internet2.Router, e.MeasPrefix)
		e.Net.RunToQuiescence()
		return e
	}
	ref, cmp := build(false), build(true)
	if !cmp.Net.CompactRIB() || ref.Net.CompactRIB() {
		t.Fatal("layout selection did not take")
	}
	if len(ref.ASes) != len(cmp.ASes) {
		t.Fatalf("AS counts differ: %d vs %d", len(ref.ASes), len(cmp.ASes))
	}
	diffs := 0
	for i, info := range ref.ASes {
		rBest := ref.Net.Speaker(info.Router).Best(ref.MeasPrefix)
		cBest := cmp.Net.Speaker(cmp.ASes[i].Router).Best(cmp.MeasPrefix)
		rs, cs := "<none>", "<none>"
		if rBest != nil {
			rs = fmt.Sprintf("%v via %d lp=%d", rBest.Path, rBest.From, rBest.LocalPref)
		}
		if cBest != nil {
			cs = fmt.Sprintf("%v via %d lp=%d", cBest.Path, cBest.From, cBest.LocalPref)
		}
		if rs != cs {
			diffs++
			if diffs <= 5 {
				t.Errorf("AS %v best differs: map %s, arena %s", info.AS, rs, cs)
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d best-route differences between layouts", diffs)
	}
}
