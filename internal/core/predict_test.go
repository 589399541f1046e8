package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/predict"
)

// TestPredictedSweepExactAtBase pins the prediction layer's anchor
// guarantee end to end: at the instrumented (latency, bandwidth) point
// the dependency-graph solve must reproduce the simulated runtime
// exactly — not approximately — because every edge arrives exactly when
// it arrived and instrumentation is passive.
func TestPredictedSweepExactAtBase(t *testing.T) {
	r := NewRunner(0)
	ps, err := r.PredictedSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
		ClockAxis(machine.DefaultConfig(), []float64{20, 16}), false)
	if err != nil {
		t.Fatal(err)
	}
	base := ps.Points[0] // mhz 20 is the base config
	for _, mech := range []apps.Mechanism{apps.SM, apps.MPPoll} {
		sim, ok := base.Sim[mech]
		if !ok {
			t.Fatalf("%v: no base simulation", mech)
		}
		if pred := base.Pred[mech]; pred.Cycles != sim.Cycles {
			t.Errorf("%v: predicted %d cycles at the base point, simulated %d; must be exact",
				mech, pred.Cycles, sim.Cycles)
		}
		if cov := 1.0; ps.Base[mech].Crit.EdgesTotal() > int64(DefaultPredictEdgeCap) {
			t.Logf("%v: edge stream larger than the cap (coverage < %v)", mech, cov)
		}
	}
}

// TestPredictedSweepSharesSweepRuns: an axis defines both forms of its
// sweep, so after the simulated sweep every validation run of the
// predicted sweep on the same runner is a memo hit with the same cycles,
// and only the instrumented base runs execute. A validation config that
// drifted from the simulated one would execute instead.
func TestPredictedSweepSharesSweepRuns(t *testing.T) {
	cfg := machine.DefaultConfig()
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	for _, c := range []struct {
		name string
		ax   Axis
	}{
		{"bisection", BisectionAxis(cfg, []float64{0, 6})},
		{"clock", ClockAxis(cfg, []float64{20, 16})},
		{"ideal-latency", IdealLatencyAxis(cfg, []int64{15, 50})},
	} {
		r := NewRunner(0)
		pts, err := r.Sweep(EM3D, ScaleTiny, mechs, c.ax)
		if err != nil {
			t.Fatal(err)
		}
		hits0, exec0 := r.Stats()
		ps, err := r.PredictedSweep(EM3D, ScaleTiny, mechs, c.ax, false)
		if err != nil {
			t.Fatal(err)
		}
		hits, exec := r.Stats()
		validations := 0
		for i, pt := range ps.Points {
			if pt.X != pts[i].X {
				t.Errorf("%s point %d: predicted X %v, simulated X %v", c.name, i, pt.X, pts[i].X)
			}
			for _, mech := range mechs {
				if l := c.ax.lane(mech); l.cfgs[i] != l.base {
					validations++
				}
				sim, ok := pt.Sim[mech]
				if !ok || sim.Cycles != pts[i].Results[mech].Cycles {
					t.Errorf("%s point %d %v: validated %d cycles (present %v), simulated %d",
						c.name, i, mech, sim.Cycles, ok, pts[i].Results[mech].Cycles)
				}
			}
		}
		if validations == 0 {
			t.Fatalf("%s: the grid has no off-base point to validate", c.name)
		}
		if exec-exec0 != uint64(len(mechs)) || hits-hits0 != uint64(validations) {
			t.Errorf("%s: predicted sweep executed %d runs and hit %d, want the %d instrumented runs and %d hits",
				c.name, exec-exec0, hits-hits0, len(mechs), validations)
		}
	}
}

// TestPredictedSweepErrorsInMechanismOrder: the mean error is a float
// sum, so Errors adds the points in mechanism order, never map order.
// One mechanism is 10^16 % off and the rest 1 %, so the sum's bits
// depend on the order; every call must return the mechanism-order bits.
func TestPredictedSweepErrorsInMechanismOrder(t *testing.T) {
	pt := PredictedPoint{X: 1, Pred: map[apps.Mechanism]predict.Prediction{}, Sim: map[apps.Mechanism]RunResult{}}
	for i, mech := range apps.Mechanisms {
		var sim RunResult
		sim.Cycles = 1000
		pred := int64(1010)
		if i == 0 {
			pred = 1000 + 1e17
		}
		pt.Pred[mech] = predict.Prediction{Cycles: pred}
		pt.Sim[mech] = sim
	}
	ps := &PredictedSweep{Points: []PredictedPoint{pt, pt}}
	fold := func(order []apps.Mechanism) predict.ErrorStats {
		var s predict.ErrorStats
		for range ps.Points {
			for _, mech := range order {
				s.Add(float64(pt.Pred[mech].Cycles), float64(pt.Sim[mech].Cycles))
			}
		}
		return s
	}
	want := fold(apps.Mechanisms)
	reversed := make([]apps.Mechanism, len(apps.Mechanisms))
	for i, mech := range apps.Mechanisms {
		reversed[len(reversed)-1-i] = mech
	}
	if rev := fold(reversed); math.Float64bits(rev.MeanPct()) == math.Float64bits(want.MeanPct()) {
		t.Fatal("the synthetic errors sum to the same bits in either order; the test cannot see map order")
	}
	for i := 0; i < 200; i++ {
		got := ps.Errors()
		if got.N != want.N || got.MaxPct != want.MaxPct || math.Float64bits(got.MeanPct()) != math.Float64bits(want.MeanPct()) {
			t.Fatalf("call %d: Errors() = %+v (mean %x), want %+v (mean %x)",
				i, got, math.Float64bits(got.MeanPct()), want, math.Float64bits(want.MeanPct()))
		}
	}
}

// TestPredictedSweepErrorBound asserts the committed validation bound
// on real grids: every predicted point of a tiny clock sweep and a
// tiny moderate-load bisection sweep lands within 15% of its
// simulation.
func TestPredictedSweepErrorBound(t *testing.T) {
	r := NewRunner(0)
	for _, app := range []AppName{EM3D, MOLDYN} {
		ps, err := r.PredictedSweep(app, ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
			ClockAxis(machine.DefaultConfig(), []float64{20, 16, 14}), false)
		if err != nil {
			t.Fatal(err)
		}
		es := ps.Errors()
		if es.N < 6 {
			t.Fatalf("%s: only %d validated mechanism-points", app, es.N)
		}
		if es.MaxPct > 15 {
			t.Errorf("%s: worst predicted-vs-simulated error %.1f%% (mean %.1f%%), committed bound is 15%%", app, es.MaxPct, es.MeanPct())
		}
	}
	bs, err := r.PredictedSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
		BisectionAxis(machine.DefaultConfig(), []float64{0, 4, 6}), false)
	if err != nil {
		t.Fatal(err)
	}
	if es := bs.Errors(); es.N < 6 || es.MaxPct > 15 {
		t.Errorf("bisection axis: worst error %.1f%% (mean %.1f%%) over %d points, committed bound is 15%%", es.MaxPct, es.MeanPct(), es.N)
	}
}

// TestPredictedBisectionConfidence: cross-traffic utilization the edge
// DAG cannot see must surface as distrust — at a heavily loaded cut
// the confidence falls below the pruning floor, so the pruned sweep
// simulates exactly the points the queueing model is blind to.
func TestPredictedBisectionConfidence(t *testing.T) {
	r := NewRunner(0)
	ps, err := r.PredictedSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM},
		BisectionAxis(machine.DefaultConfig(), []float64{0, 12}), false)
	if err != nil {
		t.Fatal(err)
	}
	idle, loaded := ps.Points[0].Pred[apps.SM], ps.Points[1].Pred[apps.SM]
	if loaded.Rho < idle.Rho+0.5 {
		t.Errorf("rho at 12 bytes/cycle of cross traffic = %v (idle %v), want the cut utilization reflected", loaded.Rho, idle.Rho)
	}
	if loaded.Confidence >= 0.7 {
		t.Errorf("confidence %v at a 2/3-loaded cut, want below the 0.7 pruning floor", loaded.Confidence)
	}
}

// flattenPredictions renders the deterministic core of a predicted
// sweep (predictions, tolerances, counts) into a canonical string for
// byte-equality comparison. Measured RunResults are excluded only
// because they carry pointers whose rendering is address-dependent;
// their determinism is covered by TestDeterminism.
func flattenPredictions(ps *PredictedSweep) string {
	s := fmt.Sprintf("grid=%d sim=%d\n", ps.Grid, ps.Simulated)
	for _, mech := range apps.Mechanisms {
		if tol, ok := ps.Tolerance[mech]; ok {
			s += fmt.Sprintf("tol %v %.9g\n", mech, tol)
		}
	}
	for _, pt := range ps.Points {
		s += fmt.Sprintf("x=%.9g", pt.X)
		for _, mech := range apps.Mechanisms {
			if p, ok := pt.Pred[mech]; ok {
				s += fmt.Sprintf(" %v:%d:%.9g:%.9g", mech, p.Cycles, p.Confidence, p.Rho)
			}
			if r, ok := pt.Sim[mech]; ok {
				s += fmt.Sprintf(" sim:%d", r.Cycles)
			}
		}
		s += "\n"
	}
	return s
}

// TestPredictedSweepDeterministic: two predicted sweeps of the same
// grid — fresh runner each, so every simulation and model build
// repeats — are byte-identical. Runs under the race suite, which also
// certifies the concurrent validation batch.
func TestPredictedSweepDeterministic(t *testing.T) {
	run := func() string {
		r := NewRunner(0)
		ps, err := r.PredictedSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
			ClockAxis(machine.DefaultConfig(), []float64{20, 16}), false)
		if err != nil {
			t.Fatal(err)
		}
		return flattenPredictions(ps)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two predictions of the same run differ:\n%s\nvs:\n%s", a, b)
	}
}

// fastestPerPoint returns the winning mechanism at each point of ps's
// hybrid curve (ties to the lower mechanism value, matching the stable
// order of apps.Mechanisms), or -1 where nothing was measured or
// predicted: the per-point half of the sweep's mechanism verdicts.
func fastestPerPoint(ps *PredictedSweep) []apps.Mechanism {
	out := make([]apps.Mechanism, len(ps.Points))
	for i, sp := range ps.HybridPoints() {
		best := apps.Mechanism(-1)
		var bestCycles int64
		for _, mech := range apps.Mechanisms {
			r, ok := sp.Results[mech]
			if !ok {
				continue
			}
			if best < 0 || r.Cycles < bestCycles {
				best, bestCycles = mech, r.Cycles
			}
		}
		out[i] = best
	}
	return out
}

// TestPredictedSweepPruned: the pruned sweep must reach the same
// mechanism verdicts as the fully validated one — same fastest
// mechanism at every point, same crossover presence — while simulating
// fewer points.
func TestPredictedSweepPruned(t *testing.T) {
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll, apps.Bulk}
	ax := ClockAxis(machine.DefaultConfig(), []float64{20, 16, 14})
	full, err := NewRunner(0).PredictedSweep(EM3D, ScaleTiny, mechs, ax, false)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := NewRunner(0).PredictedSweep(EM3D, ScaleTiny, mechs, ax, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastestPerPoint(full), fastestPerPoint(pruned)) {
		t.Errorf("pruned verdicts %v differ from validated verdicts %v",
			fastestPerPoint(pruned), fastestPerPoint(full))
	}
	for i := range mechs {
		for j := i + 1; j < len(mechs); j++ {
			_, fullX := Crossover(full.HybridPoints(), mechs[i], mechs[j])
			_, prunedX := Crossover(pruned.HybridPoints(), mechs[i], mechs[j])
			if fullX != prunedX {
				t.Errorf("%v/%v crossover presence differs: validated %v, pruned %v",
					mechs[i], mechs[j], fullX, prunedX)
			}
		}
	}
	if pruned.Simulated > full.Simulated {
		t.Errorf("pruning simulated %d of %d mechanism-points, validation %d",
			pruned.Simulated, pruned.Grid, full.Simulated)
	}
	if pruned.Simulated >= pruned.Grid {
		t.Errorf("pruning saved nothing: %d simulations for a %d-point grid", pruned.Simulated, pruned.Grid)
	}
}

// TestPredictedContextSwitchSweep: the ideal-latency axis's reference
// mechanisms are flat — one instrumented run stands at every point —
// and the shared-memory base point is exact like every other sweep's.
func TestPredictedContextSwitchSweep(t *testing.T) {
	r := NewRunner(0)
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	ps, err := r.PredictedSweep(EM3D, ScaleTiny, mechs,
		IdealLatencyAxis(machine.DefaultConfig(), []int64{15, 50}), false)
	if err != nil {
		t.Fatal(err)
	}
	base := ps.Points[0]
	if pred, sim := base.Pred[apps.SM], base.Sim[apps.SM]; pred.Cycles != sim.Cycles {
		t.Errorf("SM base point: predicted %d, simulated %d; must be exact", pred.Cycles, sim.Cycles)
	}
	for i := range ps.Points {
		if pred, sim := ps.Points[i].Pred[apps.MPPoll], ps.Points[i].Sim[apps.MPPoll]; pred.Cycles != sim.Cycles {
			t.Errorf("MP-poll reference at point %d: predicted %d, simulated %d; the flat line is its own base",
				i, pred.Cycles, sim.Cycles)
		}
	}
	if tol, ok := ps.Tolerance[apps.SM]; !ok || (tol <= 15 && !math.IsInf(tol, 1)) {
		t.Errorf("SM latency tolerance = %v cycles, want > the 15-cycle base or +Inf", tol)
	}
}
