package figures

import (
	"bytes"
	"encoding/csv"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/predict"
)

// updateGolden rewrites the CSV golden files instead of comparing:
//
//	go test ./internal/figures -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// handBuiltSweep is a tiny PredictedSweep with every cell shape the CSV
// writers must handle: an exact base point, a validated off-base point,
// a pruned (prediction-only) cell, and an infinite latency tolerance.
func handBuiltSweep() *core.PredictedSweep {
	sim := func(mech apps.Mechanism, cycles int64) core.RunResult {
		var rr core.RunResult
		rr.Mech = mech
		rr.Cycles = cycles
		return rr
	}
	return &core.PredictedSweep{
		Points: []core.PredictedPoint{
			{
				X: 15,
				Pred: map[apps.Mechanism]predict.Prediction{
					apps.SM:     {Cycles: 1000, Confidence: 1, Rho: 0.25},
					apps.MPPoll: {Cycles: 1100, Confidence: 0.9, Rho: 0.5},
				},
				Sim: map[apps.Mechanism]core.RunResult{
					apps.SM:     sim(apps.SM, 1000),
					apps.MPPoll: sim(apps.MPPoll, 1100),
				},
			},
			{
				X: 50,
				Pred: map[apps.Mechanism]predict.Prediction{
					apps.SM:     {Cycles: 1400, Confidence: 0.62, Rho: 0.8},
					apps.MPPoll: {Cycles: 1150, Confidence: 0.9, Rho: 0.5},
				},
				// MP-poll was pruned at this point: prediction stands alone.
				Sim: map[apps.Mechanism]core.RunResult{
					apps.SM: sim(apps.SM, 1450),
				},
			},
		},
		Base: map[apps.Mechanism]core.RunResult{
			apps.SM:     sim(apps.SM, 1000),
			apps.MPPoll: sim(apps.MPPoll, 1100),
		},
		Tolerance: map[apps.Mechanism]float64{
			apps.SM:     37.5,
			apps.MPPoll: math.Inf(1),
		},
		Grid:      4,
		Simulated: 3,
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file:\ngot:\n%s\nwant:\n%s\n(run with -update if the schema change is intended)",
			name, got, want)
	}
}

// TestWritePredictedCSVGolden pins the per-figure predicted CSV schema
// byte for byte, plus the structural invariants downstream plots rely
// on: the header names, one row per (X, mechanism), and empty — not
// zero — simulated/error cells where pruning skipped the validation.
func TestWritePredictedCSVGolden(t *testing.T) {
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	var buf bytes.Buffer
	if err := WritePredictedCSV(&buf, "one_way_latency_cycles", mechs, handBuiltSweep()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "predicted_golden.csv", buf.Bytes())

	recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := []string{"one_way_latency_cycles", "mechanism", "predicted_cycles",
		"simulated_cycles", "error_pct", "confidence", "rho"}
	if !reflect.DeepEqual(recs[0], wantHeader) {
		t.Errorf("header = %v, want %v", recs[0], wantHeader)
	}
	if len(recs) != 1+4 {
		t.Fatalf("%d rows for a 2x2 sweep, want header + 4", len(recs))
	}
	for _, rec := range recs[1:] {
		if rec[1] == apps.MPPoll.String() && rec[0] == "50.00" {
			if rec[3] != "" || rec[4] != "" {
				t.Errorf("pruned cell carries simulated/error values %q/%q, want empty", rec[3], rec[4])
			}
		} else if rec[3] == "" {
			t.Errorf("validated row %v has an empty simulated cell", rec)
		}
	}
}

// TestWritePredictedFig4CSVGolden pins the validation-matrix and
// latency-tolerance CSV schemas.
func TestWritePredictedFig4CSVGolden(t *testing.T) {
	rows := []PredictedFig4{{App: core.EM3D, Clock: handBuiltSweep(), Bisection: handBuiltSweep()}}
	var buf bytes.Buffer
	if err := WritePredictedFig4CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "predicted_fig4_golden.csv", buf.Bytes())

	buf.Reset()
	if err := WriteLatencyToleranceCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "predicted_tolerance_golden.csv", buf.Bytes())
	if !strings.Contains(buf.String(), ",inf\n") {
		t.Errorf("infinite tolerance not rendered as literal inf:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), ",37.5\n") {
		t.Errorf("finite tolerance missing:\n%s", buf.String())
	}
}

// TestPrintPredictedSweep smoke-checks the human-readable rendering:
// pruned cells print dashes, the error envelope and tolerance summary
// lines appear, and an infinite tolerance does not print as +Inf.
func TestPrintPredictedSweep(t *testing.T) {
	var buf bytes.Buffer
	PrintPredictedSweep(&buf, "title", "x", []apps.Mechanism{apps.SM, apps.MPPoll}, handBuiltSweep())
	out := buf.String()
	for _, want := range []string{
		"validated 3 of 4 mechanism-points",
		"worst error 3.4%",
		"(1 saved)",
		"latency tolerance (one-way cycles at +10% runtime)",
		">10^6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "+Inf") {
		t.Errorf("infinite tolerance leaked as +Inf:\n%s", out)
	}
}
