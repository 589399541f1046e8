package predict

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// refRound is the reference rounding, math.Round with a shortcut at
// f = 1, which scaleTime must match bit for bit.
func refRound(t sim.Time, f float64) sim.Time {
	if f == 1 {
		return t
	}
	return sim.Time(math.Round(float64(t) * f))
}

// refCounts tallies the cases of the recurrence a random DAG reached,
// so the test can insist its inputs keep reaching them.
type refCounts struct {
	zeroGaps   int // an event at its chain's last base time, or before it
	longWaits  int // an edge wait longer than its chain's gap
	srcClamped int // a wait departing before time 0, held at 0
}

// refEvent is an event as the solver kept it before Build compiled
// its point-independent terms.
type refEvent struct {
	node           int
	at, start      sim.Time
	src            int
	fixed, lat, bw sim.Time
	kind           int
}

// refEvents translates in's edges and completion times as Build did
// before it compiled them, in input order. in must be valid.
func refEvents(in Input) []refEvent {
	var events []refEvent
	for _, e := range in.Edges {
		switch e.Kind {
		case obs.EdgeTxn:
			continue
		case obs.EdgeBarrier:
			events = append(events, refEvent{node: e.Dst, at: e.End, start: e.Start, kind: kindMarker})
		default:
			d := e.End - e.Start
			lat, bw := e.Lat, e.BW
			if bw > d {
				bw = d
			}
			if lat > d-bw {
				lat = d - bw
			}
			src := e.Src
			if e.Kind != obs.EdgeMsg {
				src = e.Dst
			}
			events = append(events, refEvent{
				node: e.Dst, at: e.End, start: e.Start, src: src,
				fixed: d - lat - bw, lat: lat, bw: bw, kind: kindEdge,
			})
		}
	}
	for n, done := range in.DoneCycles {
		events = append(events, refEvent{node: n, at: in.Clk.Cycles(done), kind: kindTerminal})
	}
	return events
}

// refSolve is the recurrence Solve computed before Build compiled its
// point-independent terms: it sorts the events as the solver once did
// and walks them keeping each chain's base position (lastBase) beside
// its predicted one (pred), rounding each scaled part with math.Round.
// It is the reference the compiled solve must equal.
func refSolve(m *Model, unsorted []refEvent, pt Point, n *refCounts) Prediction {
	events := append([]refEvent(nil), unsorted...)
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.node != b.node {
			return a.node < b.node
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.src < b.src
	})
	lastBase := make([]sim.Time, m.nodes)
	pred := make([]sim.Time, m.nodes)
	for _, e := range events {
		gap := e.at - lastBase[e.node]
		if gap <= 0 {
			n.zeroGaps++
		}
		if gap < 0 {
			gap = 0
		}
		switch e.kind {
		case kindEdge:
			span := e.fixed + e.lat + e.bw
			wait := span
			if wait > gap {
				n.longWaits++
				wait = gap
			}
			local := pred[e.node] + (gap - wait)
			srcPot := pred[e.src] + (e.start - lastBase[e.src])
			if srcPot < 0 {
				n.srcClamped++
				srcPot = 0
			}
			arr := srcPot + e.fixed + refRound(e.lat, pt.LatScale) + refRound(e.bw, pt.BWScale)
			if arr < local {
				arr = local
			}
			pred[e.node] = arr
		default: // marker, terminal
			pred[e.node] += gap
		}
		if e.at > lastBase[e.node] {
			lastBase[e.node] = e.at
		}
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

// refLatencyTolerance is LatencyTolerance over refSolve. It returns the
// points its bisection solved, in order, beside the tolerance.
func refLatencyTolerance(m *Model, events []refEvent, growth float64, n *refCounts) (float64, []Point) {
	var pts []Point
	solve := func(pt Point) float64 {
		pts = append(pts, pt)
		return float64(refSolve(m, events, pt, n).Cycles)
	}
	base := solve(Base)
	if base <= 0 {
		return math.Inf(1), pts
	}
	target := base * (1 + growth)
	const maxLatScale = 1 << 20
	hi := 2.0
	for solve(Point{LatScale: hi, BWScale: 1}) < target {
		hi *= 2
		if hi > maxLatScale {
			return math.Inf(1), pts
		}
	}
	lo := hi / 2
	for i := 0; i < 50; i++ {
		mid := lo + (hi-lo)/2
		if solve(Point{LatScale: mid, BWScale: 1}) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, pts
}

// randomInput records edges random causal edges of every kind on a
// nodes-processor machine whose clock runs at one picosecond a cycle,
// so a prediction's cycles are its makespan to the picosecond. Effects
// fall before horizon picoseconds; a short horizon makes effects
// collide on a chain. Causes may lie anywhere before their effects,
// so waits often outlast their chain's gap and sources have run ahead
// of them. Latency and bandwidth parts are drawn up to the whole span
// each, so Build sometimes clamps them. Completion times fall a little
// before or after the horizon.
func randomInput(rng *rand.Rand, nodes, edges int, horizon int64) Input {
	kinds := []obs.EdgeKind{obs.EdgeBarrier, obs.EdgeMiss, obs.EdgeMsg, obs.EdgeTxn}
	in := Input{
		Nodes:          nodes,
		Clk:            sim.NewClock(1e6),
		EdgesTotal:     int64(edges + rng.Intn(2)*edges/4),
		BisectionBytes: float64(rng.Intn(1000)),
		BisectionBW:    1,
	}
	for i := 0; i < edges; i++ {
		end := rng.Int63n(horizon)
		start := rng.Int63n(end + 1)
		span := end - start
		in.Edges = append(in.Edges, obs.CritEdge{
			Kind:  kinds[rng.Intn(len(kinds))],
			Src:   rng.Intn(nodes),
			Dst:   rng.Intn(nodes),
			Start: sim.Time(start),
			End:   sim.Time(end),
			Lat:   sim.Time(rng.Int63n(span + 1)),
			BW:    sim.Time(rng.Int63n(span + 1)),
		})
	}
	for n := 0; n < nodes; n++ {
		in.DoneCycles = append(in.DoneCycles, horizon-horizon/8+rng.Int63n(horizon/4+1))
	}
	return in
}

// TestSolveMatchesRecurrence: the compiled solve equals the recurrence
// it replaced on random DAGs, Prediction for Prediction and tolerance
// bit for bit, at the 12×12 grid of the benchmark's predict workload,
// at every point LatencyTolerance's bisection visits, and at scales 0,
// 0.3333 and 1e3. Each mutant below, applied alone, fails it:
// scaleTime rounding halves to even; compile taking srcDelta after it
// advances the chain's base position; Solve dropping the srcPot clamp.
func TestSolveMatchesRecurrence(t *testing.T) {
	grid := []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6, 8}
	extreme := []float64{0, 0.3333, 1, 1e3}
	var pts []Point
	for _, lat := range grid {
		for _, bw := range grid {
			pts = append(pts, Point{LatScale: lat, BWScale: bw})
		}
	}
	for _, lat := range extreme {
		for _, bw := range extreme {
			pts = append(pts, Point{LatScale: lat, BWScale: bw})
		}
	}
	rng := rand.New(rand.NewSource(1))
	var n refCounts
	for trial := 0; trial < 300; trial++ {
		in := randomInput(rng, 1+rng.Intn(8), rng.Intn(80), 10+rng.Int63n(5000))
		m, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		events := refEvents(in)
		growth := []float64{0.01, 0.10, 1}[trial%3]
		want, visited := refLatencyTolerance(m, events, growth, &n)
		if got := m.LatencyTolerance(growth); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: LatencyTolerance(%v) = %v, want %v", trial, growth, got, want)
		}
		for _, pt := range append(visited, pts...) {
			if got, want := m.Solve(pt), refSolve(m, events, pt, &n); got != want {
				t.Fatalf("trial %d: Solve(%+v) = %+v, want %+v", trial, pt, got, want)
			}
		}
	}
	if n.zeroGaps == 0 || n.longWaits == 0 || n.srcClamped == 0 {
		t.Errorf("random DAGs missed a case of the recurrence: %+v", n)
	}
}

// FuzzScaleTime: scaleTime rounds exactly as math.Round does wherever
// the product fits an int64 with room to spare.
func FuzzScaleTime(f *testing.F) {
	for _, c := range []struct {
		t int64
		f float64
	}{
		// k+0.5, and 0.5-2^-54, the largest double below a half.
		{1, 0.5}, {3, 0.5}, {5, 1.5}, {7, 2.5}, {1, 0.5 - 0x1p-54},
		// Around 2^52, where doubles stop holding fractions.
		{1 << 52, 1}, {1<<52 + 1, 1}, {1<<52 - 1, 1}, {1<<52 + 1, 0.5}, {1<<52 - 1, 0.5},
		// Negative products.
		{-3, 0.5}, {3, -0.5}, {-7, 0.3333}, {-1, 0.5 - 0x1p-54},
		// f = 0, and the scales the solve meets.
		{12345, 0}, {-12345, 0}, {123456789, 0.3333}, {987654321, 1e3}, {1 << 40, 1 << 21},
	} {
		f.Add(c.t, c.f)
	}
	f.Fuzz(func(t *testing.T, ti int64, fl float64) {
		x := float64(ti) * fl
		if math.IsNaN(fl) || math.IsInf(fl, 0) || !(math.Abs(x) < 0x1p62) {
			t.Skip()
		}
		if got, want := scaleTime(sim.Time(ti), fl), sim.Time(math.Round(x)); got != want {
			t.Errorf("scaleTime(%d, %v) = %d, want math.Round's %d", ti, fl, got, want)
		}
	})
}
