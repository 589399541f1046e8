package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/sim"
)

// poisoned returns a config guaranteed to trip the event-limit watchdog
// long before any tiny-scale app completes.
func poisoned() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.EventLimit = 1000
	return cfg
}

func TestRunRecoversCrashIntoRunError(t *testing.T) {
	_, err := Run(RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny,
		Machine: poisoned()})
	if err == nil {
		t.Fatal("poisoned run succeeded")
	}
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("error type %T (%v), want *RunError", err, err)
	}
	if re.App != EM3D || re.Mech != apps.SM {
		t.Errorf("RunError identifies %s/%s, want em3d/SM", re.App, re.Mech)
	}
	if re.Stall == nil {
		t.Fatal("RunError.Stall is nil; watchdog diagnostic lost in recovery")
	}
	if re.Stall.Kind != sim.StallEventLimit {
		t.Errorf("Stall.Kind = %v, want %v", re.Stall.Kind, sim.StallEventLimit)
	}
	if !strings.Contains(re.Error(), "em3d") {
		t.Errorf("RunError text %q lacks the app name", re.Error())
	}
}

// rejectedApp is a workload that completes at once and whose sequential
// reference rejects the result.
type rejectedApp struct{}

const rejection = "x[3] = 1.5, reference 2"

func (rejectedApp) Setup(*machine.Machine, apps.Mechanism) {}
func (rejectedApp) Body(*machine.Proc)                     {}
func (rejectedApp) Validate() error                        { return errors.New(rejection) }

// TestFailedValidationIsRunError: a run that completes with a wrong
// answer fails like a crashed one: as a *RunError, the type
// Runner.Failures lists, naming the app, the mechanism and the check's
// message, and with a failed outcome in its run record.
func TestFailedValidationIsRunError(t *testing.T) {
	rc := RunConfig{App: ICCG, Mech: apps.MPPoll, Scale: ScaleTiny, Machine: machine.DefaultConfig()}
	_, err := runApp(rc, rejectedApp{})
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("error type %T (%v), want *RunError", err, err)
	}
	if re.App != ICCG || re.Mech != apps.MPPoll || re.Stall != nil {
		t.Errorf("RunError %+v, want iccg/MP-poll with no stall", re)
	}
	for _, want := range []string{"iccg", apps.MPPoll.String(), rejection} {
		if !strings.Contains(re.Error(), want) {
			t.Errorf("RunError text %q lacks %q", re.Error(), want)
		}
	}
	rec := newRecord(rc, RunResult{}, err)
	if rec.Outcome != "crash" || rec.Result != nil || rec.Error != re.Error() {
		t.Errorf("record outcome %q, error %q, result %v; want a crash carrying the RunError", rec.Outcome, rec.Error, rec.Result)
	}
}

// cfgAxis is an axis whose point i runs cfgs[i] for every mechanism.
func cfgAxis(cfgs ...machine.Config) Axis {
	xs := make([]float64, len(cfgs))
	for i := range xs {
		xs[i] = float64(i)
	}
	l := lane{cfgs: cfgs}
	return Axis{X: xs, sm: l, mp: l}
}

func TestCrashIsolationLeavesSweepCompleted(t *testing.T) {
	r := NewRunner(0)
	good := machine.DefaultConfig()
	cfgs := []machine.Config{good, poisoned(), good}
	// The middle config differs only in EventLimit, so it is a distinct
	// cache key and crashes alone.
	cfgs[2].ClockMHz = 14
	pts, err := r.Sweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM}, cfgAxis(cfgs...))
	if err != nil {
		t.Fatalf("sweep with one crashing point errored: %v", err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if len(pts[0].Results) != 1 || len(pts[2].Results) != 1 {
		t.Error("surviving points incomplete; crash was not isolated")
	}
	if len(pts[1].Results) != 0 {
		t.Error("crashed point reported results")
	}
	fails := r.Failures()
	if len(fails) != 1 {
		t.Fatalf("Failures() = %d entries, want 1", len(fails))
	}
	if fails[0].Stall == nil || fails[0].Stall.Kind != sim.StallEventLimit {
		t.Errorf("failure lacks the watchdog diagnostic: %+v", fails[0])
	}
}

func TestWhollyFailedSweepErrors(t *testing.T) {
	r := NewRunner(0)
	pts, err := r.Sweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM}, cfgAxis(poisoned()))
	if err == nil {
		t.Fatalf("sweep with zero surviving points returned %v, want error", pts)
	}
	if _, ok := err.(*RunError); !ok {
		t.Errorf("error type %T, want *RunError", err)
	}
}

func TestRunBatchAllNeverAborts(t *testing.T) {
	r := NewRunner(0)
	good := RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()}
	bad := good
	bad.Machine = poisoned()
	results, errs := r.RunBatchAll([]RunConfig{bad, good, bad, good})
	for _, i := range []int{0, 2} {
		if errs[i] == nil {
			t.Errorf("job %d: poisoned run did not error", i)
		}
	}
	for _, i := range []int{1, 3} {
		if errs[i] != nil {
			t.Errorf("job %d: good run failed: %v", i, errs[i])
		}
		if results[i].Cycles == 0 {
			t.Errorf("job %d: good run has empty result", i)
		}
	}
	// Both failing jobs share one fingerprint: one recorded failure.
	if got := len(r.Failures()); got != 1 {
		t.Errorf("Failures() = %d entries, want 1 (per distinct config)", got)
	}
}

// TestEM3DValidatesUnderSeededFaults is the seeded-fault stress test:
// EM3D tiny runs under link outages, jitter, and drain stalls, and its
// numerical results must still validate against the sequential reference
// (faults delay traffic but never drop it).
func TestEM3DValidatesUnderSeededFaults(t *testing.T) {
	rc := RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()}
	rc.Machine.FaultSpec = "jitter:max=400ns,prob=0.3;" +
		"outage:node=*,start=20us,dur=5us,every=100us;" +
		"stall:node=5,start=10us,dur=10us,every=200us"
	rc.Machine.FaultSeed = 42

	res1, err := Run(rc)
	if err != nil {
		t.Fatalf("EM3D under faults failed validation: %v", err)
	}
	res2, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Error("same fault seed produced different results")
	}
	// The result counts the faults the run took.
	if f := res1.Faults; f.Jittered == 0 || f.OutageDelays == 0 {
		t.Errorf("result counts %d jittered packets and %d outage delays, want both > 0", f.Jittered, f.OutageDelays)
	}

	// Message-passing mechanisms exercise the NI drain-stall path.
	rc.Mech = apps.MPPoll
	mp, err := Run(rc)
	if err != nil {
		t.Fatalf("EM3D/MPPoll under faults failed validation: %v", err)
	}
	if mp.Faults.StallRefusals == 0 {
		t.Error("result counts no stall refusals for a message-passing run under drain stalls")
	}
}

func TestFaultSeedsAreDistinctCacheKeys(t *testing.T) {
	r := NewRunner(1)
	rc := RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()}
	rc.Machine.FaultSpec = "jitter:max=200ns,prob=0.5"
	rc.Machine.FaultSeed = 1
	if _, err := r.Run(rc); err != nil {
		t.Fatal(err)
	}
	rc.Machine.FaultSeed = 2
	if _, err := r.Run(rc); err != nil {
		t.Fatal(err)
	}
	if _, executed := r.Stats(); executed != 2 {
		t.Errorf("executed %d runs, want 2 (distinct seeds with a live spec)", executed)
	}
}
