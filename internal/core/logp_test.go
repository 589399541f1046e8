package core

import (
	"testing"

	"repro/internal/machine"
)

func TestMeasureLogPAlewife(t *testing.T) {
	lp := MeasureLogP(machine.DefaultConfig())
	if lp.P != 32 {
		t.Errorf("P = %d, want 32", lp.P)
	}
	// Overhead: roughly half the ~85-cycle null message cost per side.
	if lp.O < 15 || lp.O > 80 {
		t.Errorf("o = %.1f cycles, want ~25-60", lp.O)
	}
	// Latency: positive, below the full round trip.
	if lp.L <= 0 || lp.L > 100 {
		t.Errorf("L = %.1f cycles, implausible", lp.L)
	}
	// Gap: bounded below by the sender's per-message occupancy and above
	// by something sane.
	if lp.G < 5 || lp.G > 200 {
		t.Errorf("g = %.1f cycles, implausible", lp.G)
	}
}

func TestLogPScalesWithMachine(t *testing.T) {
	base := MeasureLogP(machine.DefaultConfig())
	slow := machine.DefaultConfig()
	slow.HopLatency *= 8
	lp := MeasureLogP(slow)
	if lp.L <= base.L {
		t.Errorf("8x hop latency: L %.1f not above base %.1f", lp.L, base.L)
	}
	// Overheads are processor-side: unchanged.
	if d := lp.O - base.O; d > 5 || d < -5 {
		t.Errorf("overhead moved with network latency: %.1f vs %.1f", lp.O, base.O)
	}
}

// TestMicrobenchmarksOnSmallMachines measures both Figure 3 tables on
// machines whose first row has fewer than five nodes, where every
// microbenchmark pairs node 0 with the last node of that row.
func TestMicrobenchmarksOnSmallMachines(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		cfg, err := machine.ConfigForNodes(nodes)
		if err != nil {
			t.Fatal(err)
		}
		mp := MeasureMissPenalties(cfg)
		if mp.RemoteCleanRead <= mp.LocalRead || mp.NullAMCycles <= 0 {
			t.Errorf("%d nodes: %+v", nodes, mp)
		}
		lp := MeasureLogP(cfg)
		if lp.P != nodes || lp.O <= 0 || lp.G <= 0 {
			t.Errorf("%d nodes: %+v", nodes, lp)
		}
	}
}
