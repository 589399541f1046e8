package core

import (
	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/predict"
	"repro/internal/sim"
)

// SweepPoint is one X position of a parametric experiment with the
// measured results per mechanism.
type SweepPoint struct {
	X       float64 // meaning depends on the sweep (bytes/cycle, cycles, ...)
	Results map[apps.Mechanism]RunResult
}

// CrossMsgBytes is the cross-traffic message size of the bisection
// emulation: the paper settles on 64 bytes after Figure 7.
const CrossMsgBytes = 64

// The paper's grids, one per sweep figure.
var (
	// DefaultCrossRates is the Figure 8 cross-traffic schedule, in bytes
	// per processor cycle consumed by I/O traffic on the paper's 32-node
	// machine (ScaleCrossRates carries it to other machines).
	DefaultCrossRates = []float64{0, 4, 8, 12, 14, 16}
	// DefaultClockMHzs is the Figure 9 clock schedule: the paper's
	// hardware range, 20 down to 14 MHz.
	DefaultClockMHzs = []float64{20, 18, 16, 14}
	// DefaultIdealLatencies is the Figure 10 schedule of emulated
	// one-way latencies, in processor cycles.
	DefaultIdealLatencies = []int64{15, 25, 50, 100, 200}
	// DefaultScalingNodes is the Figure S1 node-count schedule: the
	// paper's 32-node machine plus the scale-out geometries.
	DefaultScalingNodes = []int{32, 64, 128, 256, 512}
)

// Axis is one sweep methodology on one grid, defined once for both
// forms of the sweep: Runner.Sweep simulates every point, and
// Runner.PredictedSweep re-solves one instrumented base run per
// mechanism. An axis carries each point's X, the machine each mechanism
// runs there and, on the three axes internal/predict can solve
// (bisection, clock, ideal latency), how each point rescales a
// mechanism's base run.
type Axis struct {
	// X is each point's position, in the axis's unit.
	X []float64
	// scaleProblem grows the workload with the node count (weak
	// scaling); every fixed-geometry axis leaves it false.
	scaleProblem bool
	// sm and mp are the shared-memory and the message-passing
	// mechanisms' views of the axis. They differ only on the Figure 10
	// axis, whose emulation leaves message passing untouched.
	sm, mp lane
}

// lane is one class of mechanisms' view of an axis.
type lane struct {
	cfgs []machine.Config // the machine each point runs
	// The predicted form; points is nil on axes without one.
	base       machine.Config  // the machine the instrumented run uses
	points     []predict.Point // each point's rescaling of the base run
	baseOneWay float64         // base one-way latency in cycles, Tolerance's unit
}

func (ax *Axis) lane(mech apps.Mechanism) *lane {
	if mech.UsesMessages() {
		return &ax.mp
	}
	return &ax.sm
}

// run is the simulation of mech at point i, for Sweep and for
// PredictedSweep's validation alike.
func (ax *Axis) run(app AppName, sc Scale, mech apps.Mechanism, i int) RunConfig {
	return RunConfig{App: app, Mech: mech, Scale: sc, Machine: ax.lane(mech).cfgs[i],
		ScaleProblem: ax.scaleProblem}
}

// BisectionAxis is the Figure 8 methodology: I/O cross-traffic of
// CrossMsgBytes messages consumes crossRates[i] bytes/cycle of the
// bisection, and X is the emulated bisection (native minus
// cross-traffic) in bytes per processor cycle. Every nonzero rate goes
// to the machine as it is, so a negative or NaN one fails its runs.
//
// Predicted, a cross-traffic stream consuming u = rate/native of the
// cut reserves every X link it crosses for its message's serialization
// time, so an application packet's head waits, on average, the residual
// of that occupancy (u*S/2) at each X hop — a queueing delay on the
// latency component, not a stretch of the application's own
// serialization, which still moves at full link rate once the link is
// won. LatScale folds that expected wait into each edge's hop latency;
// BWScale stays 1. The mapping's blind spot is compounding queueing
// near saturation, so the cross-traffic utilization rides along as
// ExtraRho: the model distrusts exactly the points it cannot see, and
// the pruned mode simulates them.
func BisectionAxis(base machine.Config, crossRates []float64) Axis {
	native := base.Mesh().BisectionBytesPerCycle(clockOf(base))
	sCross := float64(CrossMsgBytes) * float64(base.PsPerByte) // link occupancy per cross packet, ps
	fx := xHopFrac(base.Width, base.Height)
	xs := make([]float64, len(crossRates))
	l := lane{base: base, baseOneWay: NetLatencyCycles(base),
		cfgs: make([]machine.Config, len(crossRates)), points: make([]predict.Point, len(crossRates))}
	for i, rate := range crossRates {
		cfg := base
		if rate != 0 {
			cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: CrossMsgBytes, BytesPerCycle: rate}
		}
		l.cfgs[i] = cfg
		xs[i] = native - rate
		u := 0.0
		if rate > 0 && native > 0 {
			u = rate / native
			if u > 1 {
				u = 1
			}
		}
		lat := 1.0
		if u > 0 && base.HopLatency > 0 {
			lat = 1 + fx*u*sCross/(2*float64(base.HopLatency))
		}
		l.points[i] = predict.Point{LatScale: lat, BWScale: 1, ExtraRho: u}
	}
	return Axis{X: xs, sm: l, mp: l}
}

// ScaleCrossRates carries rates, cross-traffic in bytes per cycle chosen
// for the paper's 32-node machine, over to base: each is multiplied by
// base's bisection link count over that of the 8x4 mesh with base's
// other parameters. The factor is exactly 1 on 32 nodes, and a scaled
// grid consumes the same share of the cut on every machine, so none of
// its rates exceeds a smaller machine's bisection.
func ScaleCrossRates(base machine.Config, rates []float64) []float64 {
	ref, def := base.Mesh(), machine.DefaultConfig()
	ref.Width, ref.Height = def.Width, def.Height
	k := float64(base.Mesh().BisectionLinks()) / float64(ref.BisectionLinks())
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = r * k
	}
	return out
}

// xHopFrac is the expected fraction of a uniform-traffic route's hops
// that lie in the X dimension of a w-by-h mesh (E|dx| = (w^2-1)/(3w)
// for independent uniform endpoints): the share of a packet's hop
// latency exposed to the horizontal cross-traffic streams.
func xHopFrac(w, h int) float64 {
	ex := float64(w*w-1) / float64(3*w)
	ey := float64(h*h-1) / float64(3*h)
	if ex+ey == 0 {
		return 0
	}
	return ex / (ex + ey)
}

// ClockAxis is the Figure 9 methodology: the processor clock varies
// (the paper's 14-20 MHz range and beyond) while the asynchronous
// network is untouched, so relative network latency varies. X is the
// one-way network latency of a 24-byte packet in processor cycles over
// the average distance (the paper's Table 1 convention).
//
// Predicted, slowing the clock leaves network picoseconds untouched but
// shrinks them relative to a cycle, so in base-run time units both
// network components scale by mhz/base — LatScale and BWScale move
// together.
func ClockAxis(base machine.Config, mhzs []float64) Axis {
	xs := make([]float64, len(mhzs))
	l := lane{base: base, baseOneWay: NetLatencyCycles(base),
		cfgs: make([]machine.Config, len(mhzs)), points: make([]predict.Point, len(mhzs))}
	for i, mhz := range mhzs {
		cfg := base
		cfg.ClockMHz = mhz
		l.cfgs[i] = cfg
		xs[i] = NetLatencyCycles(cfg)
		s := mhz / base.ClockMHz
		l.points[i] = predict.Point{LatScale: s, BWScale: s}
	}
	return Axis{X: xs, sm: l, mp: l}
}

// IdealLatencyAxis is the Figure 10 methodology: every remote miss
// costs a uniform emulated latency over an ideal network (infinite
// bandwidth). X is the emulated one-way latency in processor cycles.
// Only the shared-memory mechanisms are affected; the paper plots
// message-passing curves for reference only, and so does this axis:
// their machine is base at every point, so a sweep runs each of them
// once.
//
// Predicted, the shared-memory mechanisms are instrumented at the first
// latency and re-solved with LatScale = lat/first, while the
// message-passing mechanisms' instrumented runs on the real network
// stand at every point.
func IdealLatencyAxis(base machine.Config, oneWayCycles []int64) Axis {
	n := len(oneWayCycles)
	ax := Axis{X: make([]float64, n),
		sm: lane{cfgs: make([]machine.Config, n), points: make([]predict.Point, n)},
		mp: lane{base: base, baseOneWay: NetLatencyCycles(base),
			cfgs: make([]machine.Config, n), points: make([]predict.Point, n)},
	}
	for i, lat := range oneWayCycles {
		cfg := base
		cfg.IdealNetOneWayCycles = lat
		ax.X[i] = float64(lat)
		ax.sm.cfgs[i] = cfg
		ax.sm.points[i] = predict.Point{LatScale: float64(lat) / float64(oneWayCycles[0]), BWScale: 1}
		ax.mp.cfgs[i] = base
		ax.mp.points[i] = predict.Base
	}
	if n > 0 {
		ax.sm.base = ax.sm.cfgs[0]
		ax.sm.baseOneWay = float64(oneWayCycles[0])
	}
	return ax
}

// NodeScalingAxis is the Figure S1 methodology: machine geometries of
// nodeCounts nodes each (canonical machine.Geometry shapes; base
// supplies every non-geometry knob). X is the node count. With
// scaleProblem false the problem size stays at the scale's fixed size
// (strong scaling); with true it grows proportionally to the node count
// (weak scaling, constant work per processor). The paper never ran
// beyond 32 nodes; this axis is the reproduction's extrapolation of its
// central question to the scale-out regime. Node counts whose workload
// cannot be partitioned (e.g. a fixed-size graph with fewer nodes than
// processors) are isolated like crashed points by the sweep. The axis
// has no predicted form.
func NodeScalingAxis(base machine.Config, nodeCounts []int, scaleProblem bool) (Axis, error) {
	xs := make([]float64, len(nodeCounts))
	cfgs := make([]machine.Config, len(nodeCounts))
	for i, n := range nodeCounts {
		w, h, err := machine.Geometry(n)
		if err != nil {
			return Axis{}, err
		}
		cfg := base
		cfg.Width, cfg.Height = w, h
		cfgs[i] = cfg
		xs[i] = float64(n)
	}
	l := lane{cfgs: cfgs}
	return Axis{X: xs, scaleProblem: scaleProblem, sm: l, mp: l}, nil
}

// MsgLenAxis is the Figure 7 methodology: the sensitivity of the
// bisection emulation to the cross-traffic message length. It holds the
// consumed bandwidth at crossRate and varies the message size; X is the
// message size in bytes. The axis has no predicted form.
func MsgLenAxis(base machine.Config, crossRate float64, sizes []int) Axis {
	xs := make([]float64, len(sizes))
	cfgs := make([]machine.Config, len(sizes))
	for i, size := range sizes {
		cfg := base
		cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: size, BytesPerCycle: crossRate}
		cfgs[i] = cfg
		xs[i] = float64(size)
	}
	l := lane{cfgs: cfgs}
	return Axis{X: xs, sm: l, mp: l}
}

// Sweep runs mechs at every point of ax. Points and mechanisms execute
// concurrently on the worker pool, memoized and bit-identical to serial
// execution, and each distinct configuration is submitted once: a
// mechanism whose machine does not change along the axis (the Figure 10
// message-passing references) runs once and stands at every point.
//
// Failed runs are isolated, not fatal: a crashing point is simply absent
// from its SweepPoint.Results (downstream analysis like Crossover and
// ClassifyRegions bridges over it), and the RunError is recorded on the
// Runner for reporting via Failures. The sweep errors only when nothing
// succeeded.
func (r *Runner) Sweep(app AppName, sc Scale, mechs []apps.Mechanism, ax Axis) ([]SweepPoint, error) {
	var jobs []RunConfig
	job := make([]int, len(ax.X)*len(mechs)) // (point, mechanism) -> index into jobs
	seen := make(map[RunConfig]int)
	for pi := range ax.X {
		for mi, mech := range mechs {
			rc := ax.run(app, sc, mech, pi)
			key := fingerprint(rc)
			j, ok := seen[key]
			if !ok {
				j = len(jobs)
				seen[key] = j
				jobs = append(jobs, rc)
			}
			job[pi*len(mechs)+mi] = j
		}
	}
	results, errs := r.RunBatchAll(jobs)
	if err := allFailed(errs); err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(ax.X))
	for pi, x := range ax.X {
		pt := SweepPoint{X: x, Results: make(map[apps.Mechanism]RunResult, len(mechs))}
		for mi, mech := range mechs {
			if j := job[pi*len(mechs)+mi]; errs[j] == nil {
				pt.Results[mech] = results[j]
			}
		}
		out[pi] = pt
	}
	return out, nil
}

// NetLatencyCycles returns the one-way delivery time of a 24-byte packet
// over the mesh's average distance, in processor cycles — the latency
// convention of the paper's Table 1 (Alewife ~ 15 at 20 MHz).
func NetLatencyCycles(cfg machine.Config) float64 {
	clk := sim.NewClock(cfg.ClockMHz)
	avg := cfg.Mesh().AvgHops()
	t := float64(cfg.HopLatency)*(avg+1) + 24*float64(cfg.PsPerByte)
	return t / float64(clk.PsPerCycle())
}

// Crossover scans a sweep (ordered by X) for the first X interval where
// mechanism a's runtime goes from strictly faster to strictly slower
// than b's (or vice versa), returning the interpolated crossing X.
// Points that did not measure both mechanisms (partial mechanism sets)
// are skipped explicitly, and exact ties establish no direction: curves
// that touch and separate back to the same side do not cross, curves
// that touch and come out on the other side cross exactly at the touch
// point, and a sweep that never has two opposite-signed points reports
// no crossing.
func Crossover(points []SweepPoint, a, b apps.Mechanism) (x float64, found bool) {
	prev := -1 // index of the last point with both measured and a nonzero difference
	tie := -1  // last exact-tie point seen since prev
	for i := range points {
		ra, okA := points[i].Results[a]
		rb, okB := points[i].Results[b]
		if !okA || !okB {
			continue
		}
		d := float64(ra.Cycles - rb.Cycles)
		if d == 0 {
			tie = i
			continue
		}
		if prev >= 0 {
			d0 := float64(points[prev].Results[a].Cycles - points[prev].Results[b].Cycles)
			if (d0 < 0) != (d < 0) {
				if tie >= 0 {
					return points[tie].X, true
				}
				p0, p1 := points[prev], points[i]
				frac := -d0 / (d - d0)
				return p0.X + frac*(p1.X-p0.X), true
			}
		}
		prev, tie = i, -1
	}
	return 0, false
}

func clockOf(cfg machine.Config) sim.Clock { return sim.NewClock(cfg.ClockMHz) }
