package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

func TestFig4DataAndPrint(t *testing.T) {
	rows, err := Fig4Data(core.ScaleTiny, machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*5 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	var buf bytes.Buffer
	PrintFig4(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Figure 4", "em3d", "unstruc", "iccg", "moldyn",
		"shared-memory", "bulk-dma", "sync%", "compute%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q", want)
		}
	}

	var buf5 bytes.Buffer
	PrintFig5(&buf5, rows)
	out5 := buf5.String()
	for _, want := range []string{"Figure 5", "inval", "hdrs", "data"} {
		if !strings.Contains(out5, want) {
			t.Errorf("Fig5 output missing %q", want)
		}
	}
}

func TestFig4VolumeShapes(t *testing.T) {
	rows, err := Fig4Data(core.ScaleTiny, machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// For every app: SM volume strictly exceeds fine-grained MP volume
	// (the paper's up-to-6x claim), and interrupt==poll volumes match.
	byApp := map[core.AppName]map[apps.Mechanism]int64{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[apps.Mechanism]int64{}
		}
		byApp[r.App][r.Res.Mech] = r.Res.Volume.Total()
	}
	for app, vols := range byApp {
		if vols[apps.SM] <= vols[apps.MPPoll] {
			t.Errorf("%s: SM volume %d <= MP volume %d", app, vols[apps.SM], vols[apps.MPPoll])
		}
		ratio := float64(vols[apps.MPInterrupt]) / float64(vols[apps.MPPoll])
		if ratio < 0.98 || ratio > 1.02 {
			t.Errorf("%s: interrupt and poll volumes differ: %d vs %d",
				app, vols[apps.MPInterrupt], vols[apps.MPPoll])
		}
	}
}

func TestPrintFig3Bounds(t *testing.T) {
	var buf bytes.Buffer
	mp := PrintFig3(&buf, machine.DefaultConfig())
	if !strings.Contains(buf.String(), "LimitLESS") {
		t.Error("Fig3 output missing LimitLESS rows")
	}
	if mp.LocalRead <= 0 || mp.LimitLESSWrite < mp.LimitLESSRead {
		t.Errorf("implausible penalties: %+v", mp)
	}
}

func TestFig8EndToEnd(t *testing.T) {
	var buf bytes.Buffer
	fig8 := SweepFigures[0]
	pts, ps, err := fig8.Run(&buf, core.EM3D, core.ScaleTiny,
		core.BisectionAxis(machine.DefaultConfig(), []float64{0, 14}), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if ps != nil {
		t.Error("simulated figure returned a predicted sweep")
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if !strings.Contains(buf.String(), "Figure 8 (em3d): execution cycles vs bisection bandwidth") {
		t.Error("missing title")
	}
	if !strings.Contains(buf.String(), "crossover") {
		t.Error("missing crossover verdict")
	}
	// Per-mechanism monotone degradation at the stressed point for SM.
	if pts[1].Results[apps.SM].Cycles <= pts[0].Results[apps.SM].Cycles {
		t.Error("SM did not degrade with cross-traffic")
	}
}

func TestFig9Fig10EndToEnd(t *testing.T) {
	var buf bytes.Buffer
	cfg := machine.DefaultConfig()
	if _, _, err := SweepFigures[1].Run(&buf, core.EM3D, core.ScaleTiny, core.ClockAxis(cfg, []float64{20, 14}), false, false); err != nil {
		t.Fatal(err)
	}
	pts, _, err := SweepFigures[2].Run(&buf, core.EM3D, core.ScaleTiny, core.IdealLatencyAxis(cfg, []int64{15, 100}), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Results[apps.SM].Cycles <= pts[0].Results[apps.SM].Cycles {
		t.Error("SM did not degrade with emulated latency")
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "Figure 10") {
		t.Error("missing titles")
	}
}

func TestFig7EndToEnd(t *testing.T) {
	var buf bytes.Buffer
	pts, err := Fig7(&buf, core.EM3D, core.ScaleTiny, machine.DefaultConfig(), 8, []int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestFig1Fig2Classification(t *testing.T) {
	// Synthetic sweep with a flat then steep SM curve.
	mk := func(x float64, sm, mp int64) core.SweepPoint {
		return core.SweepPoint{X: x, Results: map[apps.Mechanism]core.RunResult{
			apps.SM:     {Result: machine.Result{Cycles: sm}},
			apps.MPPoll: {Result: machine.Result{Cycles: mp}},
		}}
	}
	pts := []core.SweepPoint{mk(18, 100, 100), mk(10, 105, 101), mk(2, 220, 110)}
	var buf bytes.Buffer
	SweepFigures[0].Regions.Print(&buf, pts)
	out := buf.String()
	if !strings.Contains(out, "Figure 1 (measured)") || !strings.Contains(out, "latency") {
		t.Errorf("Fig1 produced no region labels:\n%s", out)
	}
	var buf2 bytes.Buffer
	SweepFigures[2].Regions.Print(&buf2, pts) // order as-is for latency sweeps
	if !strings.Contains(buf2.String(), "Figure 2 (measured)") || !strings.Contains(buf2.String(), "shared-memory") {
		t.Error("Fig2 missing mechanism label")
	}
}

func TestPrintModelComparison(t *testing.T) {
	var buf bytes.Buffer
	worst, err := PrintModelComparison(&buf, core.EM3D, core.ScaleSweep,
		machine.DefaultConfig(), []int64{15, 100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 2.2 {
		t.Errorf("model diverges from simulator by %.2fx; want within ~2x", worst)
	}
	out := buf.String()
	if !strings.Contains(out, "Analytical model") || !strings.Contains(out, "model region") {
		t.Errorf("missing headers:\n%s", out)
	}
}

func TestPrintLogP(t *testing.T) {
	var buf bytes.Buffer
	lp := PrintLogP(&buf, machine.DefaultConfig())
	if lp.P != 32 {
		t.Errorf("P = %d", lp.P)
	}
	if !strings.Contains(buf.String(), "LogP") {
		t.Error("missing header")
	}
}
