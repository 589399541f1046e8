package core

import (
	"math"
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
// machines below 32 nodes, whose first row may have fewer than five
// nodes, where every microbenchmark pairs node 0 with the last node of
// that row. A row the machine has nodes for costs what its protocol
// path costs: a LimitLESS row takes the software trap (over 300
// cycles), not a plain remote miss. A row it has no nodes for (a
// 3-party row without a third node, a LimitLESS row without six nodes
// beside the requester, the home and the third party) is not measured.
func TestMicrobenchmarksOnSmallMachines(t *testing.T) {
	for _, tc := range []struct {
		nodes                 int
		threeParty, limitless bool
	}{
		{2, false, false},
		{4, true, false},
		{8, true, false},
		{16, true, true},
	} {
		cfg, err := machine.ConfigForNodes(tc.nodes)
		if err != nil {
			t.Fatal(err)
		}
		mp := MeasureMissPenalties(cfg)
		if mp.RemoteCleanRead <= mp.LocalRead || mp.NullAMCycles <= 0 {
			t.Errorf("%d nodes: %+v", tc.nodes, mp)
		}
		for _, row := range []struct {
			name   string
			v      float64
			hosted bool
			floor  float64
		}{
			{"remote dirty read", mp.RemoteDirtyRead, tc.threeParty, mp.RemoteCleanRead},
			{"remote write, 1 inval", mp.RemoteInvalWrite, tc.threeParty, mp.RemoteCleanWrite},
			{"remote dirty write", mp.RemoteDirtyWrite, tc.threeParty, mp.RemoteCleanWrite},
			{"LimitLESS read", mp.LimitLESSRead, tc.limitless, 300},
			{"LimitLESS write", mp.LimitLESSWrite, tc.limitless, 300},
		} {
			switch {
			case !row.hosted && !math.IsNaN(row.v):
				t.Errorf("%d nodes: %s = %.1f cycles, want not measured", tc.nodes, row.name, row.v)
			case row.hosted && !(row.v > row.floor):
				t.Errorf("%d nodes: %s = %.1f cycles, want over %.1f", tc.nodes, row.name, row.v, row.floor)
			}
		}
		lp := MeasureLogP(cfg)
		if lp.P != tc.nodes || lp.O <= 0 || lp.G <= 0 {
			t.Errorf("%d nodes: %+v", tc.nodes, lp)
		}
	}
}
