package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mesh"
)

func TestNewAppAllNamesAndScales(t *testing.T) {
	for _, name := range AppNames {
		for _, sc := range []Scale{ScaleTiny, ScaleSweep, ScaleDefault} {
			a, err := NewAppSized(name, sc, BaseProcs, false)
			if err != nil {
				t.Fatalf("NewAppSized(%s, %s): %v", name, sc, err)
			}
			if pkg := reflect.TypeOf(a).Elem().PkgPath(); pkg != "repro/internal/apps/"+string(name) {
				t.Errorf("NewAppSized(%s, %s) built an app from package %s", name, sc, pkg)
			}
		}
	}
	if _, err := NewAppSized("nonesuch", ScaleTiny, BaseProcs, false); err == nil {
		t.Error("unknown app name did not error")
	}
}

func TestRunValidatesAndMeasures(t *testing.T) {
	r, err := Run(RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Volume.Total() == 0 {
		t.Errorf("implausible result: %d cycles, %d bytes", r.Cycles, r.Volume.Total())
	}
	if r.App != EM3D || r.Mech != apps.SM {
		t.Error("result labels wrong")
	}
}

func TestNetLatencyCyclesMatchesTable1(t *testing.T) {
	lat := NetLatencyCycles(machine.DefaultConfig())
	if lat < 12 || lat > 18 {
		t.Errorf("Alewife 24B one-way = %.1f cycles, want ~15 (Table 1)", lat)
	}
	// At 14 MHz the same wall-clock network is fewer processor cycles.
	cfg := machine.DefaultConfig()
	cfg.ClockMHz = 14
	if l14 := NetLatencyCycles(cfg); l14 >= lat {
		t.Errorf("14MHz latency %.1f >= 20MHz latency %.1f", l14, lat)
	}
}

// TestOneNodeClockAxisIsFinite checks Figure 9's latency column on a
// one-node machine: with no pair of distinct nodes the average distance
// is 0, so each point reads the ejection stage plus serialization, a
// finite latency at every clock.
func TestOneNodeClockAxisIsFinite(t *testing.T) {
	cfg, err := machine.ConfigForNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ClockAxis(cfg, DefaultClockMHzs).X {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			t.Errorf("one-node latency at %v MHz = %v cycles, want finite and positive", DefaultClockMHzs[i], x)
		}
	}
}

func TestScaleStrings(t *testing.T) {
	for sc, want := range map[Scale]string{
		ScaleTiny: "tiny", ScaleDefault: "default",
		ScaleSweep: "sweep", ScaleFull: "full", Scale(9): "Scale(9)",
	} {
		if sc.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(sc), sc.String(), want)
		}
	}
}

func TestParseScaleRoundTrip(t *testing.T) {
	for _, sc := range []Scale{ScaleTiny, ScaleDefault, ScaleSweep, ScaleFull} {
		if got, err := ParseScale(sc.String()); got != sc || err != nil {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", sc.String(), got, err, sc)
		}
	}
	for _, bad := range []string{"tyni", "", "Tiny", "Scale(0)"} {
		if _, err := ParseScale(bad); err == nil {
			t.Errorf("ParseScale(%q) accepted a name Scale.String never produces", bad)
		}
	}
}

func TestCrossoverSynthetic(t *testing.T) {
	mk := func(x float64, a, b int64) SweepPoint {
		return SweepPoint{X: x, Results: map[apps.Mechanism]RunResult{
			apps.SM:     {Result: machine.Result{Cycles: a}},
			apps.MPPoll: {Result: machine.Result{Cycles: b}},
		}}
	}
	// SM faster at X=10, slower at X=2: crossing in between.
	pts := []SweepPoint{mk(10, 100, 120), mk(6, 110, 120), mk(2, 160, 125)}
	x, found := Crossover(pts, apps.SM, apps.MPPoll)
	if !found {
		t.Fatal("crossover not found")
	}
	if x < 2 || x > 6 {
		t.Errorf("crossover at %.1f, want within (2, 6)", x)
	}
	// No crossing when one always wins.
	pts2 := []SweepPoint{mk(10, 100, 120), mk(2, 110, 130)}
	if _, found := Crossover(pts2, apps.SM, apps.MPPoll); found {
		t.Error("found spurious crossover")
	}
}

func TestClassifyRegionsSynthetic(t *testing.T) {
	mk := func(x float64, c int64) SweepPoint {
		return SweepPoint{X: x, Results: map[apps.Mechanism]RunResult{
			apps.SM: {Result: machine.Result{Cycles: c}},
		}}
	}
	// Flat, then linear, then explosive: the three regions of Figure 1.
	pts := []SweepPoint{
		mk(0, 1000), mk(1, 1010), mk(2, 1200), mk(3, 1400), mk(4, 2600),
	}
	regions := ClassifyRegions(pts, apps.SM)
	if len(regions) != 4 {
		t.Fatalf("got %d regions", len(regions))
	}
	if regions[0] != LatencyHiding {
		t.Errorf("interval 0 = %v, want latency-hiding", regions[0])
	}
	if regions[1] != LatencyDominated || regions[2] != LatencyDominated {
		t.Errorf("middle intervals = %v/%v, want latency-dominated", regions[1], regions[2])
	}
	if regions[3] != CongestionDominated {
		t.Errorf("interval 3 = %v, want congestion-dominated", regions[3])
	}
	if got := ClassifyRegions(pts[:1], apps.SM); got != nil {
		t.Error("single point should classify to nil")
	}
	// Points that lack the mechanism (crashed runs) are bridged over,
	// not read as 0 cycles: the sweep classifies as if they were absent.
	missing := SweepPoint{X: 1.5, Results: map[apps.Mechanism]RunResult{}}
	gap := []SweepPoint{pts[0], pts[1], missing, pts[2], pts[3], pts[4]}
	if got := ClassifyRegions(gap, apps.SM); !reflect.DeepEqual(got, regions) {
		t.Errorf("sweep with a missing middle point = %v, want %v", got, regions)
	}
	missing.X = -1
	lead := append([]SweepPoint{missing}, pts...)
	if got := ClassifyRegions(lead, apps.SM); !reflect.DeepEqual(got, regions) {
		t.Errorf("sweep with a missing first point = %v, want %v", got, regions)
	}
	if got := ClassifyRegions([]SweepPoint{pts[0], missing}, apps.SM); got != nil {
		t.Errorf("one measured point classified to %v, want nil", got)
	}
}

func TestRegionStrings(t *testing.T) {
	for r, want := range map[Region]string{
		LatencyHiding: "latency-hiding", LatencyDominated: "latency-dominated",
		CongestionDominated: "congestion-dominated", Region(5): "Region(5)",
	} {
		if r.String() != want {
			t.Errorf("%v != %q", r, want)
		}
	}
}

func TestMissPenaltiesNearPaper(t *testing.T) {
	mp := MeasureMissPenalties(machine.DefaultConfig())
	check := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s = %.1f cycles, want in [%v, %v]", name, got, lo, hi)
		}
	}
	// Paper Figure 3 values with generous bands (we match shape, not
	// exact cycle counts).
	check("LocalRead", mp.LocalRead, 8, 20)
	check("RemoteCleanRead", mp.RemoteCleanRead, 30, 60)
	check("RemoteDirtyRead", mp.RemoteDirtyRead, 50, 110)
	check("LimitLESSRead", mp.LimitLESSRead, 300, 600)
	check("LocalWrite", mp.LocalWrite, 8, 20)
	check("RemoteCleanWrite", mp.RemoteCleanWrite, 30, 60)
	check("RemoteInvalWrite", mp.RemoteInvalWrite, 40, 90)
	check("RemoteDirtyWrite", mp.RemoteDirtyWrite, 50, 110)
	check("LimitLESSWrite", mp.LimitLESSWrite, 400, 1100)
	check("NullAM", mp.NullAMCycles, 60, 140)
	check("NetLatency24", mp.NetLatency24, 12, 18)
	// Orderings the paper's table exhibits.
	if !(mp.LocalRead < mp.RemoteCleanRead && mp.RemoteCleanRead < mp.RemoteDirtyRead) {
		t.Errorf("read penalty ordering violated: %.1f, %.1f, %.1f",
			mp.LocalRead, mp.RemoteCleanRead, mp.RemoteDirtyRead)
	}
	if mp.LimitLESSWrite <= mp.LimitLESSRead {
		t.Errorf("LimitLESS write %.1f should exceed read %.1f (more sharers to invalidate)",
			mp.LimitLESSWrite, mp.LimitLESSRead)
	}
}

// testRunner is the runner the sweep tests share, so a configuration two
// tests need executes once.
var testRunner = NewRunner(0)

func TestBisectionSweepShape(t *testing.T) {
	// Figure 8's essence at test scale: as bisection drops, SM degrades
	// faster than MP.
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	pts, err := testRunner.Sweep(EM3D, ScaleTiny, mechs,
		BisectionAxis(machine.DefaultConfig(), []float64{0, 12, 16}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X < 17 || pts[0].X > 19 {
		t.Errorf("native point X = %.1f, want ~18", pts[0].X)
	}
	smDeg := float64(pts[2].Results[apps.SM].Cycles) / float64(pts[0].Results[apps.SM].Cycles)
	mpDeg := float64(pts[2].Results[apps.MPPoll].Cycles) / float64(pts[0].Results[apps.MPPoll].Cycles)
	if smDeg <= mpDeg {
		t.Errorf("SM degradation %.2fx <= MP degradation %.2fx", smDeg, mpDeg)
	}
	if smDeg < 1.05 {
		t.Errorf("SM barely degraded (%.2fx) at 2 bytes/cycle", smDeg)
	}
}

func TestClockSweepRelativeLatency(t *testing.T) {
	// Figure 9's essence: slowing the clock makes the network relatively
	// faster; SM (in cycles) improves more than MP. The paper's hardware
	// range is 14-20 MHz; we widen it to 8 MHz for a clear signal at
	// test scale.
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	pts, err := testRunner.Sweep(EM3D, ScaleSweep, mechs,
		ClockAxis(machine.DefaultConfig(), []float64{20, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].X >= pts[0].X {
		t.Errorf("latency at 8MHz (%.1f) not below 20MHz (%.1f)", pts[1].X, pts[0].X)
	}
	smGain := float64(pts[0].Results[apps.SM].Cycles) - float64(pts[1].Results[apps.SM].Cycles)
	mpGain := float64(pts[0].Results[apps.MPPoll].Cycles) - float64(pts[1].Results[apps.MPPoll].Cycles)
	if smGain <= mpGain {
		t.Errorf("SM gained %.0f cycles from a faster network, MP gained %.0f; SM should gain more",
			smGain, mpGain)
	}
}

func TestContextSwitchSweepChandraPoint(t *testing.T) {
	// Figure 10's essence: at ~100-cycle one-way latency, message
	// passing beats shared memory by roughly 2x (reconciling Chandra et
	// al.); MP curves are flat (they are not varied).
	mechs := []apps.Mechanism{apps.SM, apps.SMPrefetch, apps.MPPoll}
	pts, err := testRunner.Sweep(EM3D, ScaleTiny, mechs,
		IdealLatencyAxis(machine.DefaultConfig(), []int64{15, 100}))
	if err != nil {
		t.Fatal(err)
	}
	mp0 := pts[0].Results[apps.MPPoll].Cycles
	mp1 := pts[1].Results[apps.MPPoll].Cycles
	if mp0 != mp1 {
		t.Errorf("MP reference curve moved: %d -> %d", mp0, mp1)
	}
	sm1 := pts[1].Results[apps.SM].Cycles
	ratio := float64(sm1) / float64(mp1)
	// The paper reports ~2x at this point (reconciling Chandra et al.);
	// our substrate lands higher at unit-test scale because barrier and
	// write-invalidation round trips amplify under uniform latency (see
	// EXPERIMENTS.md). The qualitative claim under test: MP wins by a
	// multiple once latency reaches ~100 cycles.
	if ratio < 1.5 || ratio > 8 {
		t.Errorf("SM/MP at 100-cycle latency = %.2fx, want a clear MP win (~2-5x)", ratio)
	}
	// Prefetching hides some of the latency.
	pf1 := pts[1].Results[apps.SMPrefetch].Cycles
	if pf1 >= sm1 {
		t.Errorf("prefetch (%d) no better than SM (%d) at high latency", pf1, sm1)
	}
	// SM degrades with latency.
	if sm1 <= pts[0].Results[apps.SM].Cycles {
		t.Error("SM did not degrade with emulated latency")
	}
}

func TestMsgLenSweepSmallSizesEmulateBetter(t *testing.T) {
	// Figure 7: the emulation works across message sizes; runtimes vary
	// with cross-traffic granularity but stay in a band.
	pts, err := testRunner.Sweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM},
		MsgLenAxis(machine.DefaultConfig(), 8, []int{16, 64, 256}))
	if err != nil {
		t.Fatal(err)
	}
	base := pts[0].Results[apps.SM].Cycles
	for _, pt := range pts {
		c := pt.Results[apps.SM].Cycles
		if c <= 0 {
			t.Fatalf("empty result at size %v", pt.X)
		}
		r := float64(c) / float64(base)
		if r < 0.5 || r > 2.0 {
			t.Errorf("size %v runtime ratio %.2f; emulation too sensitive", pt.X, r)
		}
	}
}

func TestDeterministicRunResults(t *testing.T) {
	rc := RunConfig{App: ICCG, Mech: apps.MPPoll, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()}
	r1 := MustRun(rc)
	r2 := MustRun(rc)
	if r1.Cycles != r2.Cycles || r1.Volume != r2.Volume {
		t.Error("core.Run nondeterministic")
	}
}

func TestSweepErrorPropagation(t *testing.T) {
	cfg := machine.DefaultConfig()
	for _, c := range []struct {
		name string
		ax   Axis
	}{
		{"bisection", BisectionAxis(cfg, []float64{0})},
		{"clock", ClockAxis(cfg, []float64{20})},
		{"ideal-latency", IdealLatencyAxis(cfg, []int64{15})},
		{"msg-len", MsgLenAxis(cfg, 4, []int{64})},
	} {
		if _, err := testRunner.Sweep("nonesuch", ScaleTiny, []apps.Mechanism{apps.SM}, c.ax); err == nil {
			t.Errorf("%s sweep with unknown app did not error", c.name)
		}
	}
	if _, err := testRunner.PredictedSweep("nonesuch", ScaleTiny, []apps.Mechanism{apps.SM},
		ClockAxis(cfg, []float64{20}), false); err == nil {
		t.Error("predicted sweep with unknown app did not error")
	}
	if _, err := testRunner.PredictedSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM},
		MsgLenAxis(cfg, 4, []int{64}), false); !errors.Is(err, errNoPrediction) {
		t.Errorf("predicted msg-len sweep: err = %v, want %v", err, errNoPrediction)
	}
}

// TestCrossoverExactTies: ties establish no direction. Curves that
// touch and separate back to the same side never cross; curves that
// touch and come out on the other side cross exactly at the touch
// point; identical curves and tie-then-diverge sweeps report nothing.
func TestCrossoverExactTies(t *testing.T) {
	mk := func(x float64, a, b int64) SweepPoint {
		return SweepPoint{X: x, Results: map[apps.Mechanism]RunResult{
			apps.SM:     {Result: machine.Result{Cycles: a}},
			apps.MPPoll: {Result: machine.Result{Cycles: b}},
		}}
	}
	// Touch and return: SM ahead, tied, ahead again — no crossing.
	touch := []SweepPoint{mk(0, 100, 120), mk(1, 110, 110), mk(2, 100, 130)}
	if x, found := Crossover(touch, apps.SM, apps.MPPoll); found {
		t.Errorf("touch-and-return reported a crossover at %.1f", x)
	}
	// Touch and cross: the tie point is exactly the crossing.
	cross := []SweepPoint{mk(0, 100, 120), mk(1, 115, 115), mk(2, 130, 110)}
	x, found := Crossover(cross, apps.SM, apps.MPPoll)
	if !found {
		t.Fatal("touch-and-cross not found")
	}
	if x != 1 {
		t.Errorf("touch-and-cross at %.2f, want exactly 1 (the tie point)", x)
	}
	// Identical curves everywhere: no direction, no crossing.
	equal := []SweepPoint{mk(0, 100, 100), mk(1, 90, 90), mk(2, 110, 110)}
	if _, found := Crossover(equal, apps.SM, apps.MPPoll); found {
		t.Error("identical curves reported a crossover")
	}
	// Tie at the start then one direction: no established sign flip.
	lead := []SweepPoint{mk(0, 100, 100), mk(1, 90, 120), mk(2, 95, 130)}
	if _, found := Crossover(lead, apps.SM, apps.MPPoll); found {
		t.Error("tie-then-diverge reported a crossover")
	}
}

// TestCrossTrafficLeavingNoBisectionRefused: on a 4x2 machine (native
// bisection 9 B/cycle) a cross-traffic rate that leaves no emulated
// bisection fails at once as a *RunError naming both rates, instead of
// running toward the event limit.
func TestCrossTrafficLeavingNoBisectionRefused(t *testing.T) {
	cfg, err := machine.ConfigForNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{9, 12} {
		cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64, BytesPerCycle: rate}
		_, err := Run(RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny, Machine: cfg})
		var re *RunError
		if !errors.As(err, &re) || !strings.Contains(re.Reason, "native 9.0 B/cycle") ||
			!strings.Contains(re.Reason, fmt.Sprintf("%g B/cycle of cross-traffic", rate)) {
			t.Errorf("%g B/cycle on 4x2: %v, want a *RunError naming both rates", rate, err)
		}
	}
}
