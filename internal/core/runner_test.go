package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mesh"
)

// runAllSweeps exercises all four sweep kinds on r at ScaleTiny and
// returns their points, keyed by sweep name.
func runAllSweeps(t *testing.T, r *Runner) map[string][]SweepPoint {
	t.Helper()
	cfg := machine.DefaultConfig()
	mechs := []apps.Mechanism{apps.SM, apps.SMPrefetch, apps.MPPoll}
	out := map[string][]SweepPoint{}
	var err error
	out["bisection"], err = r.Sweep(EM3D, ScaleTiny, mechs, BisectionAxis(cfg, []float64{0, 8, 14}))
	if err != nil {
		t.Fatal(err)
	}
	out["clock"], err = r.Sweep(EM3D, ScaleTiny, mechs, ClockAxis(cfg, []float64{20, 14}))
	if err != nil {
		t.Fatal(err)
	}
	out["ctxswitch"], err = r.Sweep(EM3D, ScaleTiny, mechs, IdealLatencyAxis(cfg, []int64{15, 50, 100}))
	if err != nil {
		t.Fatal(err)
	}
	out["msglen"], err = r.Sweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM}, MsgLenAxis(cfg, 8, []int{16, 64}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelSweepsMatchSerial is the runner's core guarantee: every
// sweep kind produces results deep-equal to single-worker execution.
// Run it under -race to also certify the worker pool.
func TestParallelSweepsMatchSerial(t *testing.T) {
	serial := runAllSweeps(t, NewRunner(1))
	parallel := runAllSweeps(t, NewRunner(0))
	for name, want := range serial {
		got := parallel[name]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s sweep: parallel results differ from serial", name)
		}
	}
}

// TestRunnerMemoization checks single-flight dedup: identical
// configurations execute once, within and across batches.
func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(0)
	rc := RunConfig{App: ICCG, Mech: apps.MPPoll, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()}
	batch := []RunConfig{rc, rc, rc, rc}
	results, err := r.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if hits, executed := r.Stats(); executed != 1 || hits != 3 {
		t.Errorf("4 identical jobs: executed=%d hits=%d, want 1 and 3", executed, hits)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("memoized result %d differs from first", i)
		}
	}
	// A later individual Run is a pure cache hit.
	if _, err := r.Run(rc); err != nil {
		t.Fatal(err)
	}
	if hits, executed := r.Stats(); executed != 1 || hits != 4 {
		t.Errorf("after repeat Run: executed=%d hits=%d, want 1 and 4", executed, hits)
	}
}

// TestFingerprintNormalizesInertKnobs checks that configurations
// differing only in knobs that cannot affect the simulation share one
// cache entry (cross-traffic message size with a zero rate).
func TestFingerprintNormalizesInertKnobs(t *testing.T) {
	r := NewRunner(1)
	rc := RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()}
	if _, err := r.Run(rc); err != nil {
		t.Fatal(err)
	}
	rc.Machine.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64} // rate 0: inert
	if _, err := r.Run(rc); err != nil {
		t.Fatal(err)
	}
	if hits, executed := r.Stats(); executed != 1 || hits != 1 {
		t.Errorf("inert msg-size change re-executed: executed=%d hits=%d", executed, hits)
	}
	// A live cross-traffic config must NOT be conflated.
	rc.Machine.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64, BytesPerCycle: 8}
	if _, err := r.Run(rc); err != nil {
		t.Fatal(err)
	}
	if _, executed := r.Stats(); executed != 2 {
		t.Errorf("live cross-traffic config was served from cache: executed=%d", executed)
	}
}

// TestContextSwitchSweepHoistsReferences checks the reference
// (message-passing) mechanisms of the ideal-latency axis run once
// regardless of latency point count: Sweep submits each distinct
// configuration once, so this is deduplication, not memoization.
func TestContextSwitchSweepHoistsReferences(t *testing.T) {
	r := NewRunner(0)
	lats := []int64{15, 25, 50, 100}
	mechs := []apps.Mechanism{apps.SM, apps.MPInterrupt, apps.MPPoll, apps.Bulk}
	pts, err := r.Sweep(EM3D, ScaleTiny, mechs, IdealLatencyAxis(machine.DefaultConfig(), lats))
	if err != nil {
		t.Fatal(err)
	}
	// 4 SM points + 3 reference runs, not 4x4.
	wantExec := uint64(len(lats) + 3)
	if hits, executed := r.Stats(); executed != wantExec || hits != 0 {
		t.Errorf("executed=%d hits=%d, want %d executions (references hoisted)",
			executed, hits, wantExec)
	}
	for _, pt := range pts {
		for _, mech := range mechs {
			if _, ok := pt.Results[mech]; !ok {
				t.Fatalf("point X=%v missing %v", pt.X, mech)
			}
		}
		// Reference curves are shared, hence exactly flat.
		if pt.Results[apps.MPPoll].Cycles != pts[0].Results[apps.MPPoll].Cycles {
			t.Error("MP-poll reference curve not flat")
		}
	}
}

// TestRunnerErrorPropagation checks batch and sweep error paths under
// parallel execution: a batch reports the first failing job in input
// order, whichever worker finishes first.
func TestRunnerErrorPropagation(t *testing.T) {
	r := NewRunner(0)
	good := RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()}
	badA, badB := good, good
	badA.App, badB.App = "nonesuch-a", "nonesuch-b"
	_, err := r.RunBatch([]RunConfig{good, badA, good, badB})
	if err == nil || !strings.Contains(err.Error(), `"nonesuch-a"`) {
		t.Errorf("batch error = %v, want badA's", err)
	}
	// The error is memoized like any result.
	if _, err := r.Run(badB); err == nil {
		t.Error("cached failing run did not error")
	}
}

// TestCrossoverPartialMechanismSets: points missing one of the two
// mechanisms are skipped, not treated as zero-cycle runs.
func TestCrossoverPartialMechanismSets(t *testing.T) {
	full := func(x float64, a, b int64) SweepPoint {
		return SweepPoint{X: x, Results: map[apps.Mechanism]RunResult{
			apps.SM:     {Result: machine.Result{Cycles: a}},
			apps.MPPoll: {Result: machine.Result{Cycles: b}},
		}}
	}
	partial := func(x float64, a int64) SweepPoint {
		return SweepPoint{X: x, Results: map[apps.Mechanism]RunResult{
			apps.SM: {Result: machine.Result{Cycles: a}},
		}}
	}
	// The middle point lacks MPPoll; the crossing must still be found by
	// bridging over it, interpolated between X=10 and X=2.
	pts := []SweepPoint{full(10, 100, 120), partial(6, 110), full(2, 160, 125)}
	x, found := Crossover(pts, apps.SM, apps.MPPoll)
	if !found {
		t.Fatal("crossover not found across partial point")
	}
	if x <= 2 || x >= 10 {
		t.Errorf("crossover at %.1f, want within (2, 10)", x)
	}
	// With the seed behavior, a missing mechanism read as zero cycles and
	// could fabricate a sign flip. A sweep where SM always wins among
	// measured points must report no crossing despite gaps.
	pts2 := []SweepPoint{full(10, 100, 120), partial(6, 200), full(2, 110, 130)}
	if x, found := Crossover(pts2, apps.SM, apps.MPPoll); found {
		t.Errorf("spurious crossover at %.1f from partial point", x)
	}
	// Fewer than two measured points: nothing to scan.
	pts3 := []SweepPoint{partial(10, 100), full(6, 110, 120), partial(2, 160)}
	if _, found := Crossover(pts3, apps.SM, apps.MPPoll); found {
		t.Error("crossover claimed with a single fully-measured point")
	}
}
