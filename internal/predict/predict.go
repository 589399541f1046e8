package predict

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Input is everything Build needs from one instrumented run: the
// critical-path recorder's retained edge stream, the per-processor
// completion profile, and the traffic totals the confidence estimate
// reads. All of it comes out of a single core.RunResult with
// Machine.CritPath set.
type Input struct {
	Nodes int
	Clk   sim.Clock

	// Edges is the retained causal-edge stream (obs.CritRecorder.Edges).
	Edges []obs.CritEdge
	// EdgesTotal counts every edge the run recorded, including ones the
	// rings evicted; retained/total is the model's coverage.
	EdgesTotal int64

	// DoneCycles is each processor's completion time in cycles
	// (machine.Result.DoneCycles). The makespan over the predicted
	// completion profile is the predicted runtime.
	DoneCycles []int64

	// BisectionBytes is the application traffic expected to cross the
	// machine's middle cut over the run (total injected bytes times the
	// dimension-order crossing fraction), and BisectionBW the native cut
	// bandwidth in bytes per cycle. Together they estimate the offered
	// bisection utilization at each solved point, which is what the
	// confidence estimate distrusts: the solver scales serialization
	// linearly and cannot see congestion collapse.
	BisectionBytes float64
	BisectionBW    float64
}

// Point is one (latency, bandwidth) evaluation: LatScale multiplies
// every edge's network-latency component, BWScale every serialization/
// occupancy component, both relative to the instrumented base run.
// Fixed protocol and compute time never scale.
type Point struct {
	LatScale float64
	BWScale  float64
	// ExtraRho is bisection-cut utilization by traffic the model's own
	// edges do not carry (e.g. the Figure 8 cross-traffic streams). It
	// is added to the app-traffic utilization estimate before the
	// confidence discount and never changes the predicted cycles: its
	// job is to make the model distrust points whose contention it
	// cannot see, so the pruned sweep simulates them.
	ExtraRho float64
}

// Base is the instrumented run's own operating point. Solve(Base)
// reproduces the measured runtime exactly (see TestSolveExactAtBase).
var Base = Point{LatScale: 1, BWScale: 1}

// Prediction is one solved point.
type Prediction struct {
	// Cycles is the predicted runtime (makespan over the predicted
	// per-processor completion profile), in base-clock cycles.
	Cycles int64
	// Confidence in [0,1]: the edge-stream coverage discounted by how
	// deep into congestion the point runs. Low confidence is the pruned
	// sweep's cue to fall back to a real simulation.
	Confidence float64
	// Rho is the estimated offered bisection utilization at this point.
	Rho float64
}

// event kinds in sort order. Edges chain a wait onto a source chain;
// markers and terminals only advance a chain through rigid time.
const (
	kindEdge     = iota // miss/msg: wait = fixed + latScale·Lat + bwScale·BW
	kindMarker          // barrier release: dependence is carried by inner edges
	kindTerminal        // processor completion
)

// event is one node of the dependency DAG as Build sorts it: something
// that happened on processor chain node at base time at, optionally fed
// by a wait that departed chain src at base time start. It holds the
// sort key and where to find the rest, so the sort moves 32 bytes an
// event.
type event struct {
	at    sim.Time // base-run time of the effect (edge End, completion)
	start sim.Time // base-run time of the cause (edge Start)
	node  int32
	src   int32 // chain the wait departs from (miss: self; msg: sender)
	kind  int32
	edge  int32 // the edge's index in Input.Edges, for kindEdge
}

// step is one event in solve form: every term that does not depend on
// the point is folded in at Build. A marker or terminal is a zero wait
// from its own chain departing at its local progress, so it advances
// the chain by its rigid gap alone.
type step struct {
	node, src int32
	// rigid is the base-time progress the chain makes before this
	// effect whatever the point: the gap since the chain's previous
	// effect, less the part of the wait it exposed.
	rigid sim.Time
	// srcDelta is start less the source chain's base position at this
	// event: where the wait departs, relative to that chain's last
	// effect. Negative when the source chain has run ahead of start.
	srcDelta sim.Time
	// The wait's parts: protocol time, which never scales, network
	// latency, which scales with LatScale, and serialization/occupancy,
	// which scales with BWScale.
	fixed, lat, bw sim.Time
}

// Model is the retained dependency DAG of one instrumented run, ready
// to re-solve at arbitrary (latency, bandwidth) points. Build it once
// per base run; Solve is read-only and safe for concurrent use.
type Model struct {
	nodes int
	clk   sim.Clock
	steps []step
	// coverage is the fraction of the run's causal edges the model
	// retains; below 1, evicted edges are frozen at base cost inside
	// rigid gaps.
	coverage float64
	bisBytes float64
	bisBW    float64
}

// Build compiles an instrumented run into a solvable dependency DAG.
//
// Per edge kind: miss edges chain a round-trip wait onto the
// requester's own chain (departure at Start, arrival at End); msg
// edges chain the wait onto the sender's chain, which is what carries a
// perturbation across processors; barrier edges are markers — the
// cross-processor dependence of a barrier is already carried by the
// miss/msg edges of its spin reads and notification messages; txn
// edges are the home directory's view of a transaction the requester's
// own miss edge already covers, so they are dropped rather than letting
// one round trip perturb two chains. Time between consecutive effects
// on a chain is rigid compute by construction, which also makes edges
// the rings evicted degrade the model gracefully: their time is kept,
// just frozen at base cost.
//
// An edge outside the machine, one that ends before it starts, and one
// with a negative latency or bandwidth part are errors: the last would
// make the wait's fixed part exceed the edge span and the solve stop
// growing with LatScale, which LatencyTolerance's bisection assumes.
func Build(in Input) (*Model, error) {
	events, err := newEvents(in)
	if err != nil {
		return nil, err
	}
	// Global solve order: by base effect time, with a full deterministic
	// tiebreak. Processing in effect-time order guarantees that when an
	// edge reads its source chain's potential at the (earlier) departure
	// time, every event that shaped that potential has been applied.
	slices.SortStableFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.node, b.node); c != 0 {
			return c
		}
		if c := cmp.Compare(a.kind, b.kind); c != 0 {
			return c
		}
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	})
	cov := 1.0
	if in.EdgesTotal > 0 {
		cov = float64(len(in.Edges)) / float64(in.EdgesTotal)
		if cov > 1 {
			cov = 1
		}
	}
	return &Model{
		nodes:    in.Nodes,
		clk:      in.Clk,
		steps:    compile(in, events),
		coverage: cov,
		bisBytes: in.BisectionBytes,
		bisBW:    in.BisectionBW,
	}, nil
}

// newEvents checks in and translates its edges and completion times
// into DAG events, in input order.
func newEvents(in Input) ([]event, error) {
	if in.Nodes < 1 {
		return nil, fmt.Errorf("predict: %d nodes", in.Nodes)
	}
	if len(in.DoneCycles) != in.Nodes {
		return nil, fmt.Errorf("predict: %d completion times for %d nodes", len(in.DoneCycles), in.Nodes)
	}
	events := make([]event, 0, len(in.Edges)+in.Nodes)
	for i, e := range in.Edges {
		if e.Dst < 0 || e.Dst >= in.Nodes || e.Src < 0 || e.Src >= in.Nodes {
			return nil, fmt.Errorf("predict: edge %+v outside the %d-node machine", e, in.Nodes)
		}
		if e.End < e.Start {
			return nil, fmt.Errorf("predict: edge %+v ends before it starts", e)
		}
		if e.Lat < 0 || e.BW < 0 {
			return nil, fmt.Errorf("predict: edge %+v has a negative latency or bandwidth part", e)
		}
		switch e.Kind {
		case obs.EdgeTxn:
			continue
		case obs.EdgeBarrier:
			events = append(events, event{node: int32(e.Dst), at: e.End, start: e.Start, kind: kindMarker})
		default: // miss, msg
			src := e.Src
			if e.Kind != obs.EdgeMsg {
				src = e.Dst
			}
			events = append(events, event{
				node: int32(e.Dst), at: e.End, start: e.Start, src: int32(src), kind: kindEdge, edge: int32(i),
			})
		}
	}
	for n, done := range in.DoneCycles {
		events = append(events, event{node: int32(n), at: in.Clk.Cycles(done), kind: kindTerminal})
	}
	return events, nil
}

// compile folds the point-independent terms of the sorted events into
// steps. Each chain's base position (its last effect's base time) moves
// the same way at every point, so it is tracked here once and never in
// Solve.
func compile(in Input, events []event) []step {
	lastBase := make([]sim.Time, in.Nodes)
	steps := make([]step, len(events))
	for i, ev := range events {
		// Terminal timestamps are cycle-quantized and may land just
		// before the chain's last edge; rigid time never runs backward.
		gap := max(ev.at-lastBase[ev.node], 0)
		s := step{node: ev.node, src: ev.node, rigid: gap, srcDelta: gap}
		if ev.kind == kindEdge {
			e := in.Edges[ev.edge]
			// The recorder's decomposition is bounded by the edge span;
			// clamp defensively so fixed stays nonnegative.
			d := ev.at - ev.start
			bw := min(e.BW, d)
			lat := min(e.Lat, d-bw)
			// The base run overlapped part of this wait with the chain's
			// other progress; only the exposed part is slack.
			s.rigid = gap - min(d, gap)
			s.src = ev.src
			s.srcDelta = ev.start - lastBase[ev.src]
			s.fixed, s.lat, s.bw = d-lat-bw, lat, bw
		}
		steps[i] = s
		lastBase[ev.node] = max(lastBase[ev.node], ev.at)
	}
	return steps
}

// Events reports the solved DAG's event count: miss and msg edges,
// barrier markers and one terminal per processor.
func (m *Model) Events() int { return len(m.steps) }

// scaleTime rounds t·f to the nearest picosecond, halves away from
// zero, bit for bit as math.Round does for every product that fits an
// int64. Per-edge rounding (rather than accumulating floats) keeps
// the solve integer-exact at the base point, where f = 1 returns every
// t up to 2^53 ps (2.5 simulated hours) unchanged, and bit-stable
// everywhere. The truncation's remainder x−r is exact (Sterbenz), so
// one compare per sign finds the rounding; the two independent ifs
// compile to conditional moves.
func scaleTime(t sim.Time, f float64) sim.Time {
	x := float64(float64(t) * f) // rounded here: no fused multiply-subtract below
	r := sim.Time(x)
	d := x - float64(r)
	if d >= 0.5 {
		r++
	}
	if d <= -0.5 {
		r--
	}
	return r
}

// Solve predicts the runtime at pt by a single longest-path pass over
// the DAG in base-time order, keeping each chain's predicted position.
// The base gap between consecutive effects is rigid (compute plus
// unobserved time); an edge then completes at the later of its chain's
// local progress and its rescaled wait's arrival from the source chain
// — the max/plus recurrence of a topological longest-path. The wait
// departs the source chain at its base departure time back-projected
// through that chain's accumulated delay, and never before time 0.
// Slack behaves like the real machine in two ways: a receiver whose own
// progress outruns a delayed sender absorbs the delay (the local side
// of the max), and a delayed non-critical chain moves nothing until it
// overtakes the makespan (the final max over chains) — the same
// imbalance slack behind the Figure S2 delay-hiding asymmetry. What
// self-chained blocking waits expose, by contrast, stretches in full,
// which is exactly sequentially consistent shared memory's liability.
func (m *Model) Solve(pt Point) Prediction {
	pred := make([]sim.Time, m.nodes)
	for _, s := range m.steps {
		local := pred[s.node] + s.rigid
		srcPot := max(pred[s.src]+s.srcDelta, 0)
		arr := srcPot + s.fixed + scaleTime(s.lat, pt.LatScale) + scaleTime(s.bw, pt.BWScale)
		pred[s.node] = max(arr, local)
	}
	var makespan sim.Time
	for _, t := range pred {
		if t > makespan {
			makespan = t
		}
	}
	p := Prediction{Cycles: m.clk.ToCycles(makespan)}
	p.Rho = m.rho(p.Cycles, pt.BWScale) + pt.ExtraRho
	p.Confidence = m.coverage * (1 - 0.5*math.Min(p.Rho, 1))
	return p
}

// rho estimates offered bisection utilization at a predicted runtime:
// the base run's cut-crossing bytes against the cut bandwidth left at
// this point (BWScale stretches serialization, i.e. divides bandwidth).
func (m *Model) rho(cycles int64, bwScale float64) float64 {
	if cycles <= 0 || m.bisBW <= 0 || m.bisBytes <= 0 {
		return 0
	}
	if bwScale < 1 {
		bwScale = 1
	}
	return m.bisBytes * bwScale / (float64(cycles) * m.bisBW)
}

// LatencyTolerance returns the latency scale at which the predicted
// runtime first exceeds (1+growth) times the base runtime, holding
// bandwidth fixed — the paper-style "how much latency can this
// mechanism hide" number. Returns +Inf when even maxLatScale does not
// reach the target (the mechanism is latency-insensitive at this scale,
// e.g. an edge-free single-node run).
func (m *Model) LatencyTolerance(growth float64) float64 {
	base := float64(m.Solve(Base).Cycles)
	if base <= 0 {
		return math.Inf(1)
	}
	target := base * (1 + growth)
	const maxLatScale = 1 << 20
	hi := 2.0
	for float64(m.Solve(Point{LatScale: hi, BWScale: 1}).Cycles) < target {
		hi *= 2
		if hi > maxLatScale {
			return math.Inf(1)
		}
	}
	lo := hi / 2
	for i := 0; i < 50; i++ {
		mid := lo + (hi-lo)/2
		if float64(m.Solve(Point{LatScale: mid, BWScale: 1}).Cycles) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
