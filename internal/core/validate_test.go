package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mem"
)

// TestSweepScaleValidation validates every application under every
// mechanism at ScaleSweep (whose sizes are not divisible by the
// processor count, catching partition-boundary bugs that exact-multiple
// tiny workloads hide).
func TestSweepScaleValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-scale validation is slow")
	}
	for _, app := range AppNames {
		for _, mech := range apps.Mechanisms {
			if _, err := Run(RunConfig{App: app, Mech: mech, Scale: ScaleSweep,
				Machine: machine.DefaultConfig()}); err != nil {
				t.Errorf("%v", err)
			}
		}
	}
}

// TestRelaxedConsistencyValidates runs the shared-memory versions of all
// four applications under release consistency and validates numerically:
// the fences at locks, barriers and atomics must be sufficient for
// race-free correctness.
func TestRelaxedConsistencyValidates(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mem.Consistency = mem.RC
	for _, app := range AppNames {
		for _, mech := range []apps.Mechanism{apps.SM, apps.SMPrefetch} {
			if _, err := Run(RunConfig{App: app, Mech: mech, Scale: ScaleTiny,
				Machine: cfg}); err != nil {
				t.Errorf("RC %v", err)
			}
		}
	}
}

// TestRelaxedConsistencyHidesWriteLatency checks the Section 2 claim the
// extension exists to demonstrate: under RC, shared memory tolerates
// network latency better than under SC, because stores no longer stall.
func TestRelaxedConsistencyHidesWriteLatency(t *testing.T) {
	run := func(c mem.Consistency, lat int64) int64 {
		cfg := machine.DefaultConfig()
		cfg.Mem.Consistency = c
		cfg.IdealNetOneWayCycles = lat
		return MustRun(RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleSweep,
			Machine: cfg}).Cycles
	}
	scSlow := float64(run(mem.SC, 100)) / float64(run(mem.SC, 15))
	rcSlow := float64(run(mem.RC, 100)) / float64(run(mem.RC, 15))
	if rcSlow >= scSlow {
		t.Errorf("RC slowdown %.2fx >= SC slowdown %.2fx at 100-cycle latency", rcSlow, scSlow)
	}
	// And RC is at least as fast in absolute terms at high latency.
	if rc, sc := run(mem.RC, 100), run(mem.SC, 100); rc >= sc {
		t.Errorf("RC (%d) not faster than SC (%d) at 100-cycle latency", rc, sc)
	}
}

// TestUpdateProtocolValidates runs the shared-memory applications under
// the write-through update protocol (the ablation of the paper's
// invalidation-volume argument) and validates numerically.
func TestUpdateProtocolValidates(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mem.Protocol = mem.ProtocolUpdate
	for _, app := range AppNames {
		if _, err := Run(RunConfig{App: app, Mech: apps.SM, Scale: ScaleTiny,
			Machine: cfg}); err != nil {
			t.Errorf("update protocol: %v", err)
		}
	}
}
