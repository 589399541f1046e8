package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/sim"
)

// readMetric reads one cumulative or gauge uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// The host's speed is not constant: other tenants of a shared machine
// slow it by 5-10% for seconds to minutes. Before each job the benchmark
// times a fixed integer loop, and the run's time metrics are scaled by
// referenceNominal over the run's median loop time, which reports them at
// the speed of the host the bounds were set on. Over ten runs this
// halved the spread of mp-latency's wall time, which a slow phase of the
// host had doubled.
const (
	referenceIters   = 3_000_000
	referenceNominal = 3 * time.Millisecond // on a 2-vCPU Intel Xeon VM, go1.24
)

var referenceSink uint64

func referenceLoop() time.Duration {
	t := time.Now()
	x := uint64(0)
	for i := uint64(0); i < referenceIters; i++ {
		x = x*31 + i
	}
	referenceSink = x
	return time.Since(t)
}

// The predict workload's solve grid: 12 latency × 12 bandwidth scales
// around the instrumented run, and the runtime growth that defines the
// latency-tolerance metric.
var gridScales = []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6, 8}

const toleranceGrowth = 0.10

// A set-up takes 1-15 ms, short enough for a page fault or a timer tick
// to shift it by a tenth, so each job is set up setupReps times per pass
// and setup_s takes the median. Only the last set-up is run and counted
// in wall_s and alloc_mb.
const setupReps = 5

// sample is the host cost of one job on one pass.
type sample struct {
	wall   time.Duration   // set-up + simulation (+ prediction), excluding checks
	setups []time.Duration // each application build + machine.New + App.Setup; the last is in wall
	alloc  uint64          // heap bytes allocated over wall
	live   uint64          // live heap after the run, the job's state still reachable
}

// outcome is what one job produced.
type outcome struct {
	err    error
	cost   sample
	run    time.Duration // Machine.Run alone
	ref    time.Duration // the reference loop timed just before the job
	digest digest
	counts map[string]float64 // per-layer counts read after the run
}

// setUp builds the job's application and machine and sets the machine
// up for it, recording a span per call in tr, which may be nil.
func setUp(j job, seed int64, tr *tracer) (apps.App, *machine.Machine, error) {
	t := time.Now()
	a, err := newApp(j.App, j.Scale, j.Cfg.Nodes(), j.Weak, seed)
	if err != nil {
		return nil, nil, err
	}
	t = tr.span("apps.build", t)
	m := machine.New(j.Cfg)
	t = tr.span("machine.new", t)
	a.Setup(m, j.Mech)
	tr.span("apps.setup", t)
	return a, m, nil
}

// modelInput is what predict.Build needs from an instrumented run.
func modelInput(m *machine.Machine, res machine.Result) predict.Input {
	return predict.Input{
		Nodes:          m.Cfg.Nodes(),
		Clk:            m.Clk,
		Edges:          m.Crit.Edges(),
		EdgesTotal:     m.Crit.EdgesTotal(),
		DoneCycles:     res.DoneCycles,
		BisectionBytes: 0.5 * float64(res.Volume.Total()),
		BisectionBW:    res.Bisection,
	}
}

// runJob sets up, runs, validates and digests one job. Host time covers
// the calls a user of the simulator pays for: building the application,
// the machine and its set-up, the simulation, and for predict jobs the
// model build and solves. Validation and the benchmark's own checks run
// after the clock stops. A panic (watchdog stall, invariant violation,
// application bug) is returned as an error. tr may be nil.
func runJob(j job, seed int64, tr *tracer) (out outcome) {
	tr.beginJob(j)
	defer tr.endJob()
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("%v: panic: %v", j, r)
		}
	}()
	for i := 1; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		if _, _, err := setUp(j, seed, nil); err != nil {
			out.err = err
			return out
		}
		out.cost.setups = append(out.cost.setups, time.Since(t))
	}
	runtime.GC()
	alloc0 := readMetric("/gc/heap/allocs:bytes")
	start := time.Now()
	a, m, err := setUp(j, seed, tr)
	if err != nil {
		out.err = err
		return out
	}
	t := time.Now()
	out.cost.setups = append(out.cost.setups, t.Sub(start))
	tr.observe(m)
	res := m.Run(a.Body)
	out.run = time.Since(t)
	t = tr.span("machine.run", t)

	var preds []predict.Prediction
	var model *predict.Model
	if j.Predict {
		model, err = predict.Build(modelInput(m, res))
		if err != nil {
			out.err = fmt.Errorf("%v: %w", j, err)
			return out
		}
		t = tr.span("predict.build", t)
		for _, lat := range gridScales {
			for _, bw := range gridScales {
				preds = append(preds, model.Solve(predict.Point{LatScale: lat, BWScale: bw}))
			}
		}
		t = tr.span("predict.solve", t)
		tol := model.LatencyTolerance(toleranceGrowth)
		t = tr.span("predict.tolerance", t)
		if tol <= 1 {
			out.err = fmt.Errorf("%v: latency tolerance %v: runtime grew %v%% without added latency", j, tol, 100*toleranceGrowth)
			return out
		}
	}
	out.cost.wall = t.Sub(start)
	out.cost.alloc = readMetric("/gc/heap/allocs:bytes") - alloc0

	if err := a.Validate(); err != nil {
		out.err = fmt.Errorf("%v: %w", j, err)
		return out
	}
	tr.span("apps.validate", t)
	out.digest = digest{Cycles: res.Cycles, Events: eventsDigest(res.Events), Volume: volumeDigest(res.Volume)}
	if j.Predict {
		// The solve reproduces the instrumented run exactly at its own
		// operating point; anything else is a broken edge stream or solver.
		if got := model.Solve(predict.Base).Cycles; got != res.Cycles {
			out.err = fmt.Errorf("%v: predicted %d cycles at the base point, simulated %d", j, got, res.Cycles)
			return out
		}
		out.digest.Predicted = predictedDigest(preds)
	}
	out.counts = layerCounts(m, res)
	if j.Predict {
		out.counts["obs.crit_edges"] = float64(m.Crit.EdgesTotal())
		out.counts["obs.crit_retained"] = float64(len(m.Crit.Edges()))
		out.counts["predict.solves"] = float64(len(preds))
	}
	runtime.GC()
	out.cost.live = readMetric("/gc/heap/live:bytes")
	runtime.KeepAlive(m)
	runtime.KeepAlive(model)
	return out
}

// engines returns the distinct event engines of m.
func engines(m *machine.Machine) []*sim.Engine {
	var es []*sim.Engine
	seen := make(map[*sim.Engine]bool)
	for n := 0; n < m.Cfg.Nodes(); n++ {
		if e := m.EngineFor(n); !seen[e] {
			seen[e] = true
			es = append(es, e)
		}
	}
	return es
}

// layerCounts reads the deterministic per-layer work counters of a
// finished run from the simulator's public counters.
func layerCounts(m *machine.Machine, res machine.Result) map[string]float64 {
	var events uint64
	for _, e := range engines(m) {
		events += e.Dispatched()
	}
	xPackets, xBytes := m.Net.CrossTrafficStats()
	ev := res.Events
	return map[string]float64{
		"sim.events":             float64(events),
		"mesh.packets":           float64(m.Net.PacketsSent()),
		"mesh.xtraffic_packets":  float64(xPackets),
		"mesh.bytes":             float64(res.Volume.Total() + xBytes),
		"mem.remote_misses":      float64(ev.RemoteMisses()),
		"mem.local_misses":       float64(ev.LocalMisses),
		"mem.limitless_traps":    float64(ev.LimitLESSTraps),
		"mem.invalidations":      float64(ev.Invalidations),
		"am.messages":            float64(ev.MessagesSent),
		"am.bulk_bytes":          float64(ev.BulkBytes),
		"am.polls":               float64(ev.Polls),
		"am.interrupts":          float64(ev.Interrupts),
		"psync.barrier_arrivals": float64(ev.BarrierArrivals),
		"psync.lock_acquires":    float64(ev.LockAcquires),
		"psync.lock_spins":       float64(ev.LockSpins),
	}
}

// checker validates outcomes: against the golden digests at seed 0, and
// at every seed against the first pass, since a simulation must repeat
// exactly within a process.
type checker struct {
	workload string
	seed     int64
	golden   goldenSet
	first    map[string]digest
}

func newChecker(workload string, seed int64, golden goldenSet) *checker {
	return &checker{workload: workload, seed: seed, golden: golden, first: make(map[string]digest)}
}

func (c *checker) check(j job, d digest) error {
	key := j.String()
	if prev, ok := c.first[key]; ok && prev != d {
		return fmt.Errorf("%v: digest %+v differs from the first pass's %+v", j, d, prev)
	}
	c.first[key] = d
	if c.seed != 0 || !goldenChecked(c.workload) {
		return nil
	}
	want, ok := c.golden[c.workload][key]
	if !ok {
		return fmt.Errorf("%v: no golden digest for seed 0", j)
	}
	if d != want {
		return fmt.Errorf("%v: digest %+v, golden %+v", j, d, want)
	}
	return nil
}

// tally counts attempted and failed jobs and keeps the failures.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, err)
	}
}

// pass runs every job of w once, each after a collection and the
// reference loop, checks each outcome and counts it in the tally.
func pass(w workloadSpec, seed int64, ck *checker, tl *tally, tr *tracer) []outcome {
	outs := make([]outcome, len(w.Jobs))
	for i, j := range w.Jobs {
		runtime.GC()
		ref := referenceLoop()
		o := runJob(j, seed, tr)
		o.ref = ref
		if o.err == nil {
			o.err = ck.check(j, o.digest)
		}
		tl.add(o.err)
		outs[i] = o
	}
	return outs
}

// runUntraced measures w for at least one pass and until seconds have
// passed, and returns the end-to-end metrics. Interference from the
// host only ever adds time, so a job's time is its fastest pass; its
// set-up time is the median of its set-ups over all passes; its
// allocation and live heap, which barely vary, are the median.
func runUntraced(w workloadSpec, seed int64, seconds float64, golden goldenSet) (result, []error) {
	ck := newChecker(w.Name, seed, golden)
	var tl tally
	samples := make([][]sample, len(w.Jobs))
	var refs []float64
	start := time.Now()
	for p := 0; p == 0 || time.Since(start).Seconds() < seconds; p++ {
		for i, o := range pass(w, seed, ck, &tl, nil) {
			refs = append(refs, o.ref.Seconds())
			if o.err == nil {
				samples[i] = append(samples[i], o.cost)
			}
		}
	}
	var wall, setup, alloc, live float64
	for _, ss := range samples {
		if len(ss) == 0 {
			continue // failed in every pass; counted in the tally
		}
		wall += minimum(ss, func(s sample) float64 { return s.wall.Seconds() })
		var setups []float64
		for _, s := range ss {
			for _, d := range s.setups {
				setups = append(setups, d.Seconds())
			}
		}
		setup += median(setups)
		alloc += median(project(ss, func(s sample) float64 { return float64(s.alloc) / 1e6 }))
		if l := median(project(ss, func(s sample) float64 { return float64(s.live) / 1e6 })); l > live {
			live = l
		}
	}
	speed := referenceNominal.Seconds() / median(refs)
	values := map[string]float64{
		"wall_s":       speed * wall,
		"setup_s":      speed * setup,
		"alloc_mb":     alloc,
		"live_heap_mb": live,
	}
	return result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   fill(e2eMetrics, values),
	}, tl.errs
}

func project(ss []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

func minimum(ss []sample, f func(sample) float64) float64 {
	m := f(ss[0])
	for _, s := range ss[1:] {
		if v := f(s); v < m {
			m = v
		}
	}
	return m
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// predictJobCfg is the instrumentation a predict job runs with.
func predictJobCfg(cfg machine.Config) machine.Config {
	cfg.CritPath = true
	cfg.CritEdgeCap = core.DefaultPredictEdgeCap
	return cfg
}
