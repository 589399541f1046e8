package core

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
)

func cachedRC() RunConfig {
	return RunConfig{App: ICCG, Mech: apps.MPPoll, Scale: ScaleTiny,
		Machine: machine.DefaultConfig()}
}

// TestDiskCacheRoundTrip is the cross-process contract: a second runner
// (standing in for a second process) sharing the cache directory serves
// the run from disk — zero simulations executed — with measurements
// identical to the original.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rc := cachedRC()

	r1 := NewRunner(1)
	dc1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1.SetDiskCache(dc1)
	want, err := r1.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, executed := r1.Stats(); executed != 1 || r1.DiskHits() != 0 {
		t.Fatalf("first run: executed=%d diskHits=%d, want 1 and 0", executed, r1.DiskHits())
	}

	r2 := NewRunner(1)
	dc2, err := OpenDiskCache(dir) // fresh handle, as a new process would open
	if err != nil {
		t.Fatal(err)
	}
	r2.SetDiskCache(dc2)
	got, err := r2.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, executed := r2.Stats(); executed != 0 {
		t.Errorf("second runner executed %d simulations, want 0 (disk hit)", executed)
	}
	if r2.DiskHits() != 1 {
		t.Errorf("second runner diskHits=%d, want 1", r2.DiskHits())
	}
	if !reflect.DeepEqual(got.Result.Cycles, want.Result.Cycles) ||
		!reflect.DeepEqual(got.Result.Breakdown, want.Result.Breakdown) ||
		!reflect.DeepEqual(got.Result.Volume, want.Result.Volume) ||
		!reflect.DeepEqual(got.Result.Events, want.Result.Events) {
		t.Error("disk-served measurements differ from the executed run")
	}
	if got.App != want.App || got.Mech != want.Mech {
		t.Errorf("disk-served identity %s/%s, want %s/%s", got.App, got.Mech, want.App, want.Mech)
	}
}

// corruptAndRerun seeds a cache entry, applies corrupt to its file, and
// returns how many simulations a fresh runner then executes (1 means
// the entry was correctly distrusted, 0 means it was served).
func corruptAndRerun(t *testing.T, corrupt func(path string)) uint64 {
	t.Helper()
	dir := t.TempDir()
	rc := cachedRC()
	r1 := NewRunner(1)
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1.SetDiskCache(dc)
	if _, err := r1.Run(rc); err != nil {
		t.Fatal(err)
	}
	path := dc.path(fingerprint(rc))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}
	corrupt(path)

	r2 := NewRunner(1)
	r2.SetDiskCache(dc)
	if _, err := r2.Run(rc); err != nil {
		t.Fatal(err)
	}
	_, executed := r2.Stats()
	return executed
}

// TestDiskCacheDistrustsBadEntries: corrupt JSON, wrong schema versions,
// entries whose canonical fingerprint no longer matches (a stale
// RunConfig layout), and records that name another configuration or
// carry no result are all silent misses that re-simulate.
func TestDiskCacheDistrustsBadEntries(t *testing.T) {
	rewrite := func(mutate func(e map[string]any)) func(string) {
		return func(path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var e map[string]any
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatal(err)
			}
			mutate(e)
			out, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name    string
		corrupt func(path string)
	}{
		{"truncated", func(p string) {
			if err := os.WriteFile(p, []byte(`{"schema":`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(p string) {
			if err := os.WriteFile(p, []byte("not json at all\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-schema", rewrite(func(e map[string]any) { e["schema"] = diskCacheSchema + 1 })},
		{"stale-fingerprint", rewrite(func(e map[string]any) {
			e["config"] = e["config"].(string) + " extra-field:1"
		})},
		{"wrong-label", rewrite(func(e map[string]any) { e["fingerprint"] = "0000000000000000" })},
		{"no-result", rewrite(func(e map[string]any) { delete(e, "result") })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if executed := corruptAndRerun(t, c.corrupt); executed != 1 {
				t.Errorf("executed=%d after %s entry, want 1 (re-simulated)", executed, c.name)
			}
		})
	}
}

// TestDiskCacheSkipsFailedRuns: runs that error (here: a workload that
// cannot be partitioned for the machine) leave no cache entry behind.
func TestDiskCacheSkipsFailedRuns(t *testing.T) {
	dir := t.TempDir()
	cfg, err := machine.ConfigForNodes(512)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{App: EM3D, Mech: apps.SM, Scale: ScaleTiny, Machine: cfg}
	r := NewRunner(1)
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.SetDiskCache(dc)
	if _, err := r.Run(rc); err == nil {
		t.Fatal("fixed tiny em3d on 512 nodes should fail to partition")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed run left %d cache entries", len(entries))
	}
}

// TestUnbuildableRunExecutesNothing: a configuration NewAppSized refuses
// (tiny em3d's 320-node graph on 512 processors) builds no machine, so a
// runner warm from another runner's disk cache executes no simulation
// for the sweep, and its run log calls the refused run invalid, not a
// crash.
func TestUnbuildableRunExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	ax, err := NodeScalingAxis(machine.DefaultConfig(), []int{32, 512}, false)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(tele *Telemetry) *Runner {
		t.Helper()
		dc, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(1)
		r.SetDiskCache(dc)
		r.SetTelemetry(tele)
		if _, err := r.Sweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM}, ax); err != nil {
			t.Fatal(err)
		}
		return r
	}
	sweep(nil)

	var log bytes.Buffer
	r := sweep(&Telemetry{RunLog: &log})
	if _, executed := r.Stats(); executed != 0 {
		t.Errorf("warm runner executed %d simulations, want 0", executed)
	}
	if n := r.DiskHits(); n != 1 {
		t.Errorf("warm runner served %d runs from disk, want 1 (the 32-node run)", n)
	}
	outcomes := map[string]int{}
	dec := json.NewDecoder(&log)
	for dec.More() {
		var rec RunRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("run log is not valid JSONL: %v", err)
		}
		outcomes[rec.Outcome]++
	}
	if want := map[string]int{"ok": 1, "invalid": 1}; !reflect.DeepEqual(outcomes, want) {
		t.Errorf("run log outcomes %v, want %v", outcomes, want)
	}
}

// TestPredictedSweepLogsEveryExecution: an instrumented base run records
// causal edges, which the disk cannot hold, so a runner warm from
// another process's disk cache still executes it — once, through the
// memo, logged as the miss it is — while the validation runs come from
// disk. Rerunning the sweep on the same runner executes nothing.
func TestPredictedSweepLogsEveryExecution(t *testing.T) {
	dir := t.TempDir()
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	ax := ClockAxis(machine.DefaultConfig(), []float64{20, 16})
	newRunner := func(tele *Telemetry) *Runner {
		t.Helper()
		dc, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(2)
		r.SetDiskCache(dc)
		r.SetTelemetry(tele)
		return r
	}
	if _, err := newRunner(nil).PredictedSweep(EM3D, ScaleTiny, mechs, ax, false); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	r := newRunner(&Telemetry{RunLog: &log})
	for i := 0; i < 2; i++ {
		if _, err := r.PredictedSweep(EM3D, ScaleTiny, mechs, ax, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, executed := r.Stats(); executed != 2 {
		t.Errorf("warm runner executed %d simulations, want 2 (the instrumented base runs, once each)", executed)
	}
	if n := r.DiskHits(); n != 2 {
		t.Errorf("warm runner served %d runs from disk, want 2 (the validation runs)", n)
	}
	misses := 0
	dec := json.NewDecoder(&log)
	for dec.More() {
		var rec RunRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("run log is not valid JSONL: %v", err)
		}
		if rec.Memo == "miss" {
			misses++
		}
	}
	if misses != 2 {
		t.Errorf("run log holds %d miss records, want 2 (one per execution)", misses)
	}
}
