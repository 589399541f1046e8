package model

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

// em3dish is a hand-rolled parameter set with EM3D character, for tests
// that don't need simulator fitting.
func em3dish() (AppParams, MachineParams) {
	app := AppParams{
		ComputeCycles:    6000,
		Values:           110,
		SMEndpointCycles: 80,
		SMBytes:          48,
		MPOverhead:       25,
		MPBytes:          12,
		PrefetchHidden:   0.35,
		SyncCycles:       1500,
	}
	m := MachineParams{
		Procs: 32, BisectionPerCyc: 18,
		OneWayLatency: 15, BaseOneWay: 15,
		BisectionTraffic: 0.5,
	}
	return app, m
}

func TestPredictBasicOrdering(t *testing.T) {
	app, m := em3dish()
	sm := Predict(app, m, SharedMemory)
	pf := Predict(app, m, Prefetched)
	mp := Predict(app, m, MessagePassing)
	if !(mp.Cycles < pf.Cycles && pf.Cycles < sm.Cycles) {
		t.Errorf("ordering wrong: MP %.0f, PF %.0f, SM %.0f", mp.Cycles, pf.Cycles, sm.Cycles)
	}
	if sm.Rho <= mp.Rho {
		t.Errorf("SM offered load %.3f <= MP %.3f", sm.Rho, mp.Rho)
	}
}

func TestBisectionCurveShape(t *testing.T) {
	app, m := em3dish()
	bisections := []float64{18, 10, 6, 4, 2, 1}
	sm := bisectionCurve(app, m, SharedMemory, bisections)
	mp := bisectionCurve(app, m, MessagePassing, bisections)
	// Monotone degradation.
	for i := 1; i < len(sm); i++ {
		if sm[i].Cycles < sm[i-1].Cycles {
			t.Errorf("SM not monotone at %v", bisections[i])
		}
	}
	// SM hits congestion before MP.
	smCong, mpCong := -1, -1
	for i := range sm {
		if sm[i].Region == core.CongestionDominated && smCong < 0 {
			smCong = i
		}
		if mp[i].Region == core.CongestionDominated && mpCong < 0 {
			mpCong = i
		}
	}
	if smCong < 0 {
		t.Fatal("SM never reaches the congestion region")
	}
	if mpCong >= 0 && mpCong <= smCong {
		t.Errorf("MP congests at index %d, not after SM's %d", mpCong, smCong)
	}
	// The absolute degradation of SM exceeds MP's.
	smLoss := sm[len(sm)-1].Cycles - sm[0].Cycles
	mpLoss := mp[len(mp)-1].Cycles - mp[0].Cycles
	if smLoss <= mpLoss {
		t.Errorf("SM loses %.0f, MP loses %.0f; SM should lose more", smLoss, mpLoss)
	}
}

func TestLatencyCurveShape(t *testing.T) {
	app, m := em3dish()
	lats := []float64{15, 50, 100, 200}
	sm := latencyCurve(app, m, SharedMemory, lats)
	pf := latencyCurve(app, m, Prefetched, lats)
	mp := latencyCurve(app, m, MessagePassing, lats)
	smSlope := (sm[3].Cycles - sm[0].Cycles) / (lats[3] - lats[0])
	pfSlope := (pf[3].Cycles - pf[0].Cycles) / (lats[3] - lats[0])
	mpSlope := (mp[3].Cycles - mp[0].Cycles) / (lats[3] - lats[0])
	if !(mpSlope < pfSlope && pfSlope < smSlope) {
		t.Errorf("slopes: MP %.2f, PF %.2f, SM %.2f; want MP < PF < SM", mpSlope, pfSlope, smSlope)
	}
	if mpSlope > 0.01*smSlope {
		t.Errorf("MP slope %.3f not ~flat vs SM %.3f", mpSlope, smSlope)
	}
	// Figure 2's regions: SM latency-dominated at high latency, MP hiding.
	if sm[3].Region == core.LatencyHiding {
		t.Error("SM at 200 cycles classified as hiding")
	}
	if mp[3].Region != core.LatencyHiding {
		t.Errorf("MP at 200 cycles = %v, want hiding", mp[3].Region)
	}
}

func TestCongestionFactorBounds(t *testing.T) {
	if congestionFactor(0) != 1 {
		t.Error("zero load should have factor 1")
	}
	if congestionFactor(0.5) != 2 {
		t.Error("rho=0.5 should double")
	}
	if congestionFactor(1.5) != congestionCap {
		t.Error("overload should cap")
	}
	if congestionFactor(0.999) != congestionCap {
		t.Error("near-saturation should cap")
	}
}

func TestFitFromSimulatorAndAgree(t *testing.T) {
	// Fit the model from two baseline runs, then check it against the
	// simulator at the baseline and at a stressed point.
	cfg := machine.DefaultConfig()
	smRun := core.MustRun(core.RunConfig{App: core.EM3D, Mech: apps.SM,
		Scale: core.ScaleSweep, Machine: cfg})
	mpRun := core.MustRun(core.RunConfig{App: core.EM3D, Mech: apps.MPPoll,
		Scale: core.ScaleSweep, Machine: cfg})
	app, m, err := Fit(smRun, mpRun, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline agreement within a factor of two per mechanism.
	smPred := Predict(app, m, SharedMemory)
	mpPred := Predict(app, m, MessagePassing)
	perProcSM := float64(smRun.Cycles)
	perProcMP := float64(mpRun.Cycles)
	if r := smPred.Cycles / perProcSM; r < 0.5 || r > 2 {
		t.Errorf("SM baseline: model %.0f vs measured %.0f (ratio %.2f)", smPred.Cycles, perProcSM, r)
	}
	if r := mpPred.Cycles / perProcMP; r < 0.5 || r > 2 {
		t.Errorf("MP baseline: model %.0f vs measured %.0f (ratio %.2f)", mpPred.Cycles, perProcMP, r)
	}
	// Latency sensitivity direction: at 100-cycle one-way, the model's SM
	// degradation should be within 2x of the simulator's.
	cfg100 := cfg
	cfg100.IdealNetOneWayCycles = 100
	sm100 := core.MustRun(core.RunConfig{App: core.EM3D, Mech: apps.SM,
		Scale: core.ScaleSweep, Machine: cfg100})
	measuredGrowth := float64(sm100.Cycles) / float64(smRun.Cycles)
	m2 := m
	m2.OneWayLatency = 100
	modelGrowth := Predict(app, m2, SharedMemory).Cycles / smPred.Cycles
	if r := modelGrowth / measuredGrowth; r < 0.5 || r > 2 {
		t.Errorf("latency growth: model %.2fx vs measured %.2fx", modelGrowth, measuredGrowth)
	}
}

func TestFitRejectsWrongMechanisms(t *testing.T) {
	cfg := machine.DefaultConfig()
	r := core.MustRun(core.RunConfig{App: core.EM3D, Mech: apps.SM,
		Scale: core.ScaleTiny, Machine: cfg})
	if _, _, err := Fit(r, r, cfg); err == nil {
		t.Error("Fit accepted two SM runs")
	}
}

func TestStrings(t *testing.T) {
	if SharedMemory.String() == "" || Prefetched.String() == "" || MessagePassing.String() == "" {
		t.Error("empty mechanism string")
	}
	for r := core.LatencyHiding; r <= core.CongestionDominated; r++ {
		if r.String() == "" {
			t.Error("empty region string")
		}
	}
}
