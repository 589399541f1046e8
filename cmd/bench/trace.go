package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
)

// span is one bench-side interval around a call into a layer. Job spans
// (Parent -1) enclose the layer spans of one simulation, which never
// nest, so a layer span's self time is its duration.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory from the benchmark goroutine and counts
// thread handoffs through the engines' span-observer hook. The hook runs
// on tile worker goroutines under the tiled engine, so its counters are
// atomic. A nil *tracer records nothing.
type tracer struct {
	origin time.Time
	spans  []span
	job    int

	handoffs, blocked, miss, await atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), job: -1} }

func (tr *tracer) beginJob(j job) {
	if tr == nil {
		return
	}
	tr.job = len(tr.spans)
	now := time.Since(tr.origin).Nanoseconds()
	tr.spans = append(tr.spans, span{ID: tr.job, Parent: -1, Name: "job", Job: j.String(), Start: now, End: now})
}

func (tr *tracer) endJob() {
	if tr == nil {
		return
	}
	tr.spans[tr.job].End = time.Since(tr.origin).Nanoseconds()
	tr.job = -1
}

// span records [start, now) as a child of the open job span and returns
// now, so consecutive calls chain.
func (tr *tracer) span(name string, start time.Time) time.Time {
	now := time.Now()
	if tr != nil {
		tr.spans = append(tr.spans, span{
			ID: len(tr.spans), Parent: tr.job, Name: name, Job: tr.spans[tr.job].Job,
			Start: start.Sub(tr.origin).Nanoseconds(), End: now.Sub(tr.origin).Nanoseconds(),
		})
	}
	return now
}

// observe installs the handoff counter on every engine of m.
func (tr *tracer) observe(m *machine.Machine) {
	if tr == nil {
		return
	}
	for _, e := range engines(m) {
		e.SetSpanObserver(tr.count)
	}
}

// count is called once per completed thread pause, that is once per
// engine-to-thread handoff.
func (tr *tracer) count(_ *sim.Thread, _, _ sim.Time, blocked bool, reason string, _ int64) {
	tr.handoffs.Add(1)
	if blocked {
		tr.blocked.Add(1)
	}
	switch {
	case strings.HasPrefix(reason, "mem-miss"):
		tr.miss.Add(1)
	case reason == "await-message":
		tr.await.Add(1)
	}
}

// selfMS sums the durations of the named spans, in milliseconds.
func (tr *tracer) selfMS(name string) float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// runTraced runs w once untraced and once traced, then the layer
// microbenchmarks, and returns the per-layer metrics. It writes the
// spans, the CPU profile of the traced pass and every per-layer number
// with its per-job counts into dir.
func runTraced(w workloadSpec, seed int64, dir string, golden goldenSet) (result, []error) {
	ck := newChecker(w.Name, seed, golden)
	var tl tally
	fail := func(err error) (result, []error) {
		tl.add(err)
		return result{Attempted: tl.attempted, Failed: tl.failed}, tl.errs
	}
	base := pass(w, seed, ck, &tl, nil)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return fail(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fail(err)
	}
	tr := newTracer()
	traced := pass(w, seed, ck, &tl, tr)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fail(err)
	}

	// Critical-path recording is passive: the same job without it must
	// produce the same digest. The rerun also prices the recording.
	var instrumented, plain time.Duration
	for i, j := range w.Jobs {
		if !j.Predict || base[i].err != nil {
			continue
		}
		p := j
		p.Cfg.CritPath, p.Cfg.CritEdgeCap, p.Predict = false, 0, false
		o := runJob(p, seed, nil)
		if o.err == nil {
			want := base[i].digest
			want.Predicted = ""
			if o.digest != want {
				o.err = fmt.Errorf("%v: digest %+v without critical-path recording, %+v with it", j, o.digest, want)
			}
		}
		tl.add(o.err)
		instrumented += base[i].run
		plain += o.run
	}

	// Only predict jobs report these counts.
	values := map[string]float64{"obs.crit_edges": 0, "obs.crit_retained": 0, "predict.solves": 0}
	jobs := make([]map[string]interface{}, len(w.Jobs))
	var baseWall, tracedWall, baseRun time.Duration
	var refs []float64
	for i, j := range w.Jobs {
		baseWall += base[i].cost.wall
		baseRun += base[i].run
		tracedWall += traced[i].cost.wall
		refs = append(refs, 1000*base[i].ref.Seconds(), 1000*traced[i].ref.Seconds())
		for k, v := range traced[i].counts {
			//lint:allow simlint/maporder each key is added once per job, so the sum cannot depend on iteration order
			values[k] += v
		}
		jobs[i] = map[string]interface{}{"job": j.String(), "counts": traced[i].counts, "digest": traced[i].digest}
	}
	values["sim.handoffs"] = float64(tr.handoffs.Load())
	values["sim.handoffs_blocked"] = float64(tr.blocked.Load())
	values["mem.handoffs_miss"] = float64(tr.miss.Load())
	values["am.handoffs_await"] = float64(tr.await.Load())
	values["sim.ns_per_event"] = ratio(float64(baseRun.Nanoseconds()), values["sim.events"])
	for _, name := range []string{"apps.build", "machine.new", "apps.setup", "machine.run", "apps.validate"} {
		values[name+"_ms"] = tr.selfMS(name)
	}
	values["obs.edge_coverage"] = ratio(values["obs.crit_retained"], values["obs.crit_edges"])
	delete(values, "obs.crit_retained")
	values["obs.overhead_pct"] = 0
	if plain > 0 {
		values["obs.overhead_pct"] = 100 * (float64(instrumented)/float64(plain) - 1)
	}
	values["trace.overhead_pct"] = 100 * (ratio(float64(tracedWall), float64(baseWall)) - 1)
	values["host.raw_wall_s"] = baseWall.Seconds()
	values["host.ref_ms"] = median(refs)
	values["host.peak_rss_mb"] = peakRSSMB()

	shares, err := profileShares(profPath)
	if err != nil {
		return fail(err)
	}
	for k, v := range shares {
		values[k] = v
	}
	for k, v := range runMicros() {
		values[k] = v
	}

	res := result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   fill(layerMetrics, values),
	}
	layers := make(map[string]interface{}, len(layerMetrics))
	for _, d := range layerMetrics {
		layers[d.Name] = map[string]interface{}{"value": values[d.Name], "unit": d.Unit, "layer": d.Layer, "moves": d.Moves}
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), map[string]interface{}{
		"workload": w.Name, "seed": seed, "metrics": layers, "jobs": jobs,
	}); err != nil {
		return fail(err)
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), tr.spans); err != nil {
		return fail(err)
	}
	return res, tl.errs
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
