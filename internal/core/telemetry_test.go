package core_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

// telemetryConfig is one cheap, instrumentation-heavy run: spans and
// protocol trace both enabled.
func telemetryConfig() core.RunConfig {
	cfg := machine.DefaultConfig()
	cfg.SpanCap = 2048
	cfg.TraceCap = 1024
	return core.RunConfig{App: core.EM3D, Mech: apps.MPPoll, Scale: core.ScaleTiny,
		Machine: cfg}
}

// TestTelemetryArtifactsByteIdentical runs the same configuration twice
// on fresh runners writing into fresh directories and requires each to
// hold one Perfetto timeline, byte-identical between the two — the
// observability layer's determinism guarantee. Run under -race via
// `make check` (the runner pool makes the telemetry sinks concurrent).
func TestTelemetryArtifactsByteIdentical(t *testing.T) {
	run := func(dir string) {
		t.Helper()
		r := core.NewRunner(2)
		r.SetTelemetry(&core.Telemetry{TimelineDir: dir})
		if _, err := r.Run(telemetryConfig()); err != nil {
			t.Fatal(err)
		}
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	run(dir1)
	run(dir2)
	names, err := filepath.Glob(filepath.Join(dir1, "*"))
	if err != nil || len(names) != 1 || filepath.Ext(names[0]) != ".json" {
		t.Fatalf("expected one timeline .json in %s, got %v (err %v)", dir1, names, err)
	}
	for _, n := range names {
		a, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, filepath.Base(n)))
		if err != nil {
			t.Fatalf("second run did not produce %s: %v", filepath.Base(n), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between identical runs", filepath.Base(n))
		}
		if len(a) == 0 {
			t.Errorf("%s is empty", filepath.Base(n))
		}
	}
}

// TestRunLogRecordsMemoization drives the same configuration through one
// runner twice and checks the JSONL log: an executed record, then a
// cache-hit record, both naming the same fingerprint.
func TestRunLogRecordsMemoization(t *testing.T) {
	var log bytes.Buffer
	r := core.NewRunner(1)
	r.SetTelemetry(&core.Telemetry{RunLog: &log})
	rc := telemetryConfig()
	for i := 0; i < 2; i++ {
		if _, err := r.Run(rc); err != nil {
			t.Fatal(err)
		}
	}
	dec := json.NewDecoder(&log)
	var recs []core.RunRecord
	for dec.More() {
		var rec core.RunRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("run log is not valid JSONL: %v", err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Memo != "miss" || recs[1].Memo != "hit" {
		t.Errorf("memo flags = %q, %q; want miss, hit", recs[0].Memo, recs[1].Memo)
	}
	if recs[0].Fingerprint == "" || recs[0].Fingerprint != recs[1].Fingerprint {
		t.Errorf("fingerprints = %q, %q; want equal and nonempty", recs[0].Fingerprint, recs[1].Fingerprint)
	}
	for _, rec := range recs {
		if rec.Outcome != "ok" || rec.App != "em3d" || rec.Mech != "mp-poll" || rec.Scale != "tiny" {
			t.Errorf("bad record %+v", rec)
		}
		if rec.Result == nil || rec.Result.Cycles <= 0 {
			t.Fatalf("record missing its result: %+v", rec)
		}
		if n := len(rec.Result.Links); n == 0 || n > 3 {
			t.Errorf("hot links = %v, want 1..3 entries", rec.Result.Links)
		}
	}
}

// TestRunLogRecordsStallOutcome checks that a watchdog-stalled run is
// logged as outcome "stall", with its error and without a result.
func TestRunLogRecordsStallOutcome(t *testing.T) {
	var log bytes.Buffer
	r := core.NewRunner(1)
	r.SetTelemetry(&core.Telemetry{RunLog: &log})
	rc := telemetryConfig()
	// Every node's links go dark at t=0 for a full second, far past the
	// run deadline, so the deadline watchdog ends the run as a stall.
	rc.Machine.FaultSpec = "outage:node=*,start=0us,dur=1000000us"
	rc.Machine.FaultSeed = 1
	rc.Machine.DeadlineCycles = 2_000_000
	if _, err := r.Run(rc); err == nil {
		t.Fatal("outage run completed; expected a deadline stall")
	}
	var rec core.RunRecord
	if err := json.Unmarshal(log.Bytes(), &rec); err != nil {
		t.Fatalf("run log: %v", err)
	}
	if rec.Outcome != "stall" {
		t.Errorf("outcome = %q, want stall (error %q)", rec.Outcome, rec.Error)
	}
	if rec.Error == "" {
		t.Error("failed run logged without error detail")
	}
	if rec.Result != nil {
		t.Errorf("failed run logged a result: %+v", rec.Result)
	}
}

// TestInstrumentationIsPassive requires the paper-facing measurements of
// an instrumented run to equal an uninstrumented run's exactly: spans,
// tracing and the critical-path profiler observe the simulation
// without perturbing it, so enabling them can never change figure data.
// The root package's TestInstrumentationIsPassiveEveryPair repeats this
// for every app and mechanism.
func TestInstrumentationIsPassive(t *testing.T) {
	bare := telemetryConfig()
	bare.Machine.SpanCap = 0
	bare.Machine.TraceCap = 0
	plain, err := core.Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	rc := telemetryConfig()
	rc.Machine.CritPath = true
	rc.Machine.CritEdgeCap = core.DefaultPredictEdgeCap
	instr, err := core.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if instr.Spans == nil || instr.Trace == nil || instr.Crit == nil || instr.CritPath == nil {
		t.Fatal("instrumented run did not record spans/trace/critical path")
	}
	got := instr.Result
	got.CritPath = nil
	if !reflect.DeepEqual(plain.Result, got) {
		t.Errorf("instrumentation perturbed the run:\nplain: %+v\ninstrumented: %+v",
			plain.Result, got)
	}
}
