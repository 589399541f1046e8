package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

var update = flag.Bool("update", false, "rerun every golden-checked workload at seed 0 and rewrite testdata/golden_seed0.json")

// TestGolden checks that the golden file covers exactly the jobs the
// benchmark compares at seed 0. With -update it regenerates the file
// from one pass of each workload (about 30 s).
func TestGolden(t *testing.T) {
	if *update {
		g := make(goldenSet)
		for _, w := range workloads() {
			if !goldenChecked(w.Name) {
				continue
			}
			g[w.Name] = make(map[string]digest)
			for _, j := range w.Jobs {
				o := runJob(j, 0, nil)
				if o.err != nil {
					t.Fatal(o.err)
				}
				g[w.Name][j.String()] = o.digest
			}
		}
		if err := writeJSON(filepath.Join("testdata", "golden_seed0.json"), g); err != nil {
			t.Fatal(err)
		}
		return
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, w := range workloads() {
		if !goldenChecked(w.Name) {
			if _, ok := g[w.Name]; ok {
				t.Errorf("golden file has digests for %s, which is not compared", w.Name)
			}
			continue
		}
		for _, j := range w.Jobs {
			want++
			d, ok := g[w.Name][j.String()]
			if !ok {
				t.Errorf("%s %v: no golden digest", w.Name, j)
			}
			if j.Predict != (d.Predicted != "") {
				t.Errorf("%s %v: predicted digest present=%v for a predict=%v job", w.Name, j, d.Predicted != "", j.Predict)
			}
		}
	}
	got := 0
	for _, jobs := range g {
		got += len(jobs)
	}
	if got != want {
		t.Errorf("golden file has %d digests, the workloads %d jobs", got, want)
	}
}

// TestSeedZeroMatchesCoreRun checks that the benchmark's seeded
// construction at seed 0 is the simulator's own: every application
// under every mechanism at tiny scale, and every application at the
// sweep and default scales the workloads use.
func TestSeedZeroMatchesCoreRun(t *testing.T) {
	type point struct {
		app   core.AppName
		mech  apps.Mechanism
		scale core.Scale
		cfg   machine.Config
		weak  bool
	}
	var points []point
	for _, a := range core.AppNames {
		for _, mech := range apps.Mechanisms {
			points = append(points, point{a, mech, core.ScaleTiny, machine.DefaultConfig(), false})
		}
		for _, sc := range []core.Scale{core.ScaleSweep, core.ScaleDefault} {
			points = append(points, point{a, apps.MPPoll, sc, machine.DefaultConfig(), false})
		}
	}
	cfg64, err := machine.ConfigForNodes(64)
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, point{core.EM3D, apps.SM, core.ScaleTiny, cfg64, true})
	for _, p := range points {
		want, err := core.Run(core.RunConfig{App: p.app, Mech: p.mech, Scale: p.scale, Machine: p.cfg, ScaleProblem: p.weak})
		if err != nil {
			t.Fatal(err)
		}
		j := job{App: p.app, Mech: p.mech, Scale: p.scale, Cfg: p.cfg, Weak: p.weak, Point: p.scale.String()}
		o := runJob(j, 0, nil)
		if o.err != nil {
			t.Fatal(o.err)
		}
		wantDigest := digest{Cycles: want.Cycles, Events: eventsDigest(want.Events), Volume: volumeDigest(want.Volume)}
		if o.digest != wantDigest {
			t.Errorf("%v: seed 0 gives %+v, core.Run %+v", j, o.digest, wantDigest)
		}
	}
}

// shrink returns w at tiny scale on at most 64 nodes.
func shrink(t *testing.T, w workloadSpec) workloadSpec {
	jobs := append([]job(nil), w.Jobs...)
	for i := range jobs {
		jobs[i].Scale = core.ScaleTiny
		if jobs[i].Cfg.Nodes() > 64 {
			cfg, err := machine.ConfigForNodes(64)
			if err != nil {
				t.Fatal(err)
			}
			jobs[i].Cfg = cfg
		}
	}
	w.Jobs = jobs
	return w
}

// TestShrunkWorkloadsPass runs a tiny-scale shrink of every workload
// twice, at a seed other than 0, and expects no failures: every run
// validates, keeps the coherence invariants and repeats its digest.
func TestShrunkWorkloadsPass(t *testing.T) {
	for _, w := range workloads() {
		w := shrink(t, w)
		ck := newChecker(w.Name, 7, nil)
		var tl tally
		for p := 0; p < 2; p++ {
			for i, o := range pass(w, 7, ck, &tl, nil) {
				c := o.cost
				if o.err == nil && (len(c.setups) != setupReps || c.setups[0] <= 0 || c.setups[setupReps-1] > c.wall || c.alloc == 0 || c.live == 0 || o.ref <= 0) {
					t.Errorf("%s %v: cost %+v, reference %v", w.Name, w.Jobs[i], c, o.ref)
				}
			}
		}
		if tl.failed != 0 || tl.attempted != 2*len(w.Jobs) {
			t.Errorf("%s: %d of %d runs failed: %v", w.Name, tl.failed, tl.attempted, tl.errs)
		}
	}
}

// TestCorruptedDigestFails checks that a seed-0 result differing from
// its golden digest is counted as a failed run.
func TestCorruptedDigestFails(t *testing.T) {
	j := job{App: core.EM3D, Mech: apps.SM, Scale: core.ScaleTiny, Cfg: machine.DefaultConfig(), Point: "tiny"}
	w := workloadSpec{Name: "golden-test", Jobs: []job{j}}
	o := runJob(j, 0, nil)
	if o.err != nil {
		t.Fatal(o.err)
	}
	for _, corrupt := range []bool{false, true} {
		d := o.digest
		if corrupt {
			d.Volume = "0000000000000000"
		}
		var tl tally
		pass(w, 0, newChecker(w.Name, 0, goldenSet{w.Name: {j.String(): d}}), &tl, nil)
		if got := tl.failed == 1; got != corrupt {
			t.Errorf("corrupted=%v: %d of %d runs failed: %v", corrupt, tl.failed, tl.attempted, tl.errs)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced path on the
// shrunk predict workload, which exercises every layer span, and checks
// its artifacts.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	w, err := findWorkload("predict")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, errs := runTraced(shrink(t, w), 3, dir, nil)
	if !res.Correct || len(errs) > 0 {
		t.Fatalf("traced run failed: %v", errs)
	}
	for _, d := range layerMetrics {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || v.Unit != d.Unit {
			t.Errorf("%s: got %+v", d.Name, v)
		}
	}
	for _, name := range []string{"sim.events", "sim.handoffs", "obs.crit_edges", "predict.solves", "machine.run_ms", "sim.handoff_ns"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if c := res.Metrics["obs.edge_coverage"].Value; c != 1 {
		t.Errorf("edge coverage %v, want 1 at tiny scale", c)
	}
	for _, f := range []string{"spans.json", "cpu.pprof", "layers.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

var sink int

// TestProfileShares writes a CPU profile of a busy loop and checks that
// the decoded shares cover all samples and credit the loop's package.
func TestProfileShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for i := 0; i < 20; i++ {
		sink += spin(20_000_000)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range hostGroups {
		sum += shares["host."+g+"_pct"]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v%%: %v", sum, shares)
	}
	if shares["host.other_pct"] < 50 {
		t.Errorf("busy loop in package main got %v%%: %v", shares["host.other_pct"], shares)
	}
}

func TestHostGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).step":                       "sim",
		"repro/internal/sim.(*Thread).Pause":                      "sim",
		"repro/internal/mem.(*System).Load":                       "mem",
		"repro/internal/apps/em3d.(*App).Body.func1":              "apps",
		"repro/internal/workload.NewEM3D":                         "apps",
		"repro/internal/obs.NewRing[go.shape.struct {}]":          "obs",
		"sort.Slice[repro/internal/mem.Addr]":                     "other",
		"repro/internal/stats.Events.Plus":                        "other",
		"runtime.mallocgc":                                        "gc",
		"runtime.scanobject":                                      "gc",
		"runtime.chansend":                                        "sched",
		"runtime.park_m":                                          "sched",
		"internal/runtime/atomic.(*Uint32).Load":                  "sched",
		"main.main":                                               "other",
		"repro/internal/predict.(*Model).Solve":                   "predict",
		"repro/internal/machine.(*Proc).Compute":                  "machine",
		"repro/internal/psync.(*SMBarrier).Wait":                  "psync",
		"repro/internal/am.(*System).inject":                      "am",
		"repro/internal/mesh.(*Network).Send":                     "mesh",
		"repro/internal/core.Run":                                 "other",
		"repro/internal/apps/moldyn.New[repro/internal/sim.Time]": "apps",
	} {
		if got := hostGroup(fn); got != want {
			t.Errorf("hostGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestQuartiles pins the exclusive method of Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// publishes exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			if m := got[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != better || m.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
}
