package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

func scalingPoint(x float64, cycles map[apps.Mechanism]int64) core.SweepPoint {
	res := map[apps.Mechanism]core.RunResult{}
	for m, c := range cycles {
		res[m] = core.RunResult{Result: machine.Result{Cycles: c}, Mech: m}
	}
	return core.SweepPoint{X: x, Results: res}
}

// TestSpeedupBaseline: speedup is relative to the mechanism's own first
// measured point, and absent mechanisms yield ok=false instead of a
// division by zero.
func TestSpeedupBaseline(t *testing.T) {
	pts := []core.SweepPoint{
		scalingPoint(32, map[apps.Mechanism]int64{apps.SM: 1000}),
		scalingPoint(64, map[apps.Mechanism]int64{apps.SM: 500, apps.MPPoll: 400}),
		scalingPoint(128, map[apps.Mechanism]int64{apps.SM: 2000, apps.MPPoll: 200}),
	}
	if s, ok := Speedup(pts, apps.SM, pts[1]); !ok || s != 2.0 {
		t.Errorf("SM speedup at 64 = %.2f/%v, want 2.00", s, ok)
	}
	if s, ok := Speedup(pts, apps.SM, pts[2]); !ok || s != 0.5 {
		t.Errorf("SM speedup at 128 = %.2f/%v, want 0.50", s, ok)
	}
	// MPPoll's baseline is its first measured point (X=64), not X=32.
	if s, ok := Speedup(pts, apps.MPPoll, pts[2]); !ok || s != 2.0 {
		t.Errorf("MPPoll speedup at 128 = %.2f/%v, want 2.00 vs its own baseline", s, ok)
	}
	if _, ok := Speedup(pts, apps.MPPoll, pts[0]); ok {
		t.Error("speedup claimed for a point that lacks the mechanism")
	}
}

// TestWriteScalingCSVMissingCells: unpartitionable points emit empty
// cells, never zeros, so plots drop them.
func TestWriteScalingCSVMissingCells(t *testing.T) {
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	fixed := []core.SweepPoint{
		scalingPoint(32, map[apps.Mechanism]int64{apps.SM: 1000, apps.MPPoll: 800}),
		scalingPoint(64, nil), // unpartitionable
	}
	scaled := []core.SweepPoint{
		scalingPoint(32, map[apps.Mechanism]int64{apps.SM: 1000, apps.MPPoll: 800}),
		scalingPoint(64, map[apps.Mechanism]int64{apps.SM: 1500, apps.MPPoll: 1000}),
	}
	var buf bytes.Buffer
	if err := WriteScalingCSV(&buf, mechs, fixed, scaled); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "mode,nodes,shared-memory_cycles,mp-poll_cycles,shared-memory_speedup,mp-poll_speedup" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != "fixed,64,,,," {
		t.Errorf("unpartitionable row = %q, want empty cells", lines[2])
	}
	if lines[4] != "scaled,64,1500,1000,0.6667,0.8000" {
		t.Errorf("scaled row = %q", lines[4])
	}
}

// TestFigS1EndToEnd runs the scaling experiment small (two node counts
// at tiny scale) and checks the report's shape: both scaling modes, a
// speedup column anchored at 1.00, and identical 32-node baselines
// between the modes.
func TestFigS1EndToEnd(t *testing.T) {
	var buf bytes.Buffer
	fixed, scaled, err := FigS1(&buf, testRunner, core.EM3D, core.ScaleTiny, machine.DefaultConfig(), []int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 2 || len(scaled) != 2 {
		t.Fatalf("got %d fixed / %d scaled points, want 2 each", len(fixed), len(scaled))
	}
	for _, m := range apps.Mechanisms {
		f, okF := fixed[0].Results[m]
		s, okS := scaled[0].Results[m]
		if !okF || !okS || f.Cycles != s.Cycles {
			t.Errorf("%s: 32-node baselines differ between modes (%v vs %v)", m, f.Cycles, s.Cycles)
		}
		if f.Cycles <= 0 {
			t.Errorf("%s: non-positive baseline runtime", m)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"Figure S1 (em3d)",
		"strong scaling", "weak scaling",
		"crossover (fixed)", "crossover (scaled)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FigS1 output missing %q", want)
		}
	}
}
