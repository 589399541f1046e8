package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/machine"
)

// TestSweepRerunByteIdentical runs the same tiny sweep twice on fresh
// runners (so nothing is served from cache) and requires the results —
// and the figure data generated from them — to be byte-identical. This
// is the end-to-end determinism guarantee the paper's Figures 7–10
// rest on: re-running an experiment reproduces its data exactly.
// TestParallelSweepsMatchSerial covers parallel-vs-serial equivalence;
// this covers run-to-run equivalence. Run under -race via `make check`.
func TestSweepRerunByteIdentical(t *testing.T) {
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	run := func() ([]core.SweepPoint, []byte) {
		t.Helper()
		r := core.NewRunner(0)
		pts, err := r.Sweep(core.EM3D, core.ScaleTiny, mechs, core.ClockAxis(machine.DefaultConfig(), []float64{20, 14}))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := figures.WriteSweepCSV(&buf, "net_latency_cycles", mechs, pts); err != nil {
			t.Fatal(err)
		}
		return pts, buf.Bytes()
	}
	pts1, csv1 := run()
	pts2, csv2 := run()
	if !reflect.DeepEqual(pts1, pts2) {
		t.Error("re-running the same sweep on a fresh runner produced different results")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("figure data differs between identical sweep runs:\nfirst:\n%s\nsecond:\n%s", csv1, csv2)
	}
}
