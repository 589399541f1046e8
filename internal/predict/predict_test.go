package predict

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// testClock is 20 MHz: 50000 ps per cycle, matching the default machine.
func testClock() sim.Clock { return sim.NewClock(20) }

// twoNodeInput is a hand-built two-processor run: a shared-memory miss
// on node 0, a message from node 0 consumed by node 1, a barrier marker
// on node 1, and a directory-transaction edge the builder must drop.
func twoNodeInput() Input {
	clk := testClock()
	c := clk.Cycles
	return Input{
		Nodes: 2,
		Clk:   clk,
		Edges: []obs.CritEdge{
			{Kind: obs.EdgeTxn, Src: 0, Dst: 1, Start: c(1), End: c(2)},
			{Kind: obs.EdgeMiss, Src: 1, Dst: 0, Start: c(10), End: c(20), Lat: c(4), BW: c(2)},
			{Kind: obs.EdgeMsg, Src: 0, Dst: 1, Start: c(12), End: c(25), Lat: c(5), BW: c(1)},
			{Kind: obs.EdgeBarrier, Src: 1, Dst: 1, Start: c(25), End: c(28)},
		},
		EdgesTotal: 4,
		DoneCycles: []int64{30, 32},
	}
}

// TestSolveExactAtBase is the model's anchor: at (LatScale, BWScale) =
// (1, 1) the longest-path pass must reproduce the measured makespan
// exactly, because every edge arrives exactly when it arrived and every
// gap is rigid.
func TestSolveExactAtBase(t *testing.T) {
	m, err := Build(twoNodeInput())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Solve(Base)
	if got.Cycles != 32 {
		t.Errorf("Solve(Base) = %d cycles, want the measured 32", got.Cycles)
	}
}

// TestSolveScalesLatency pins the full recurrence on the hand-built
// DAG at LatScale 2. Node 0's miss departs its own chain at cycle 10
// and arrives at 10 + 4(fixed) + 2·4(lat) + 2(bw) = 24; the message
// departs node 0's chain at its base time 12, back-projected through
// node 0's 4-cycle accumulated delay to potential 16, and arrives at
// node 1 at 16 + 7(fixed) + 2·5(lat) + 1(bw) = 34; the barrier marker
// and terminal add their rigid 3 + 4 cycles: makespan 41.
func TestSolveScalesLatency(t *testing.T) {
	m, err := Build(twoNodeInput())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Solve(Point{LatScale: 2, BWScale: 1}); got.Cycles != 41 {
		t.Errorf("Solve(lat×2) = %d cycles, want 41", got.Cycles)
	}
	// Bandwidth scaling stretches only the BW components (2 + 1 cycles).
	if got := m.Solve(Point{LatScale: 1, BWScale: 2}); got.Cycles != 35 {
		t.Errorf("Solve(bw×2) = %d cycles, want 35", got.Cycles)
	}
}

// TestSolveMonotone: predictions never shrink as either scale grows.
func TestSolveMonotone(t *testing.T) {
	m, err := Build(twoNodeInput())
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for _, s := range []float64{1, 1.5, 2, 4, 8, 32} {
		c := m.Solve(Point{LatScale: s, BWScale: 1}).Cycles
		if c < prev {
			t.Fatalf("prediction shrank from %d to %d cycles at LatScale %v", prev, c, s)
		}
		prev = c
	}
}

// TestSolveSlackAbsorbs: a latency-stretched chain that is not the
// critical one moves nothing until it overtakes the makespan — the
// imbalance slack behind the Figure S2 delay-hiding asymmetry.
func TestSolveSlackAbsorbs(t *testing.T) {
	clk := testClock()
	c := clk.Cycles
	in := Input{
		Nodes: 2,
		Clk:   clk,
		Edges: []obs.CritEdge{
			// Node 0's miss: 2 cycles of latency inside a 10-cycle stall.
			{Kind: obs.EdgeMiss, Src: 0, Dst: 0, Start: c(10), End: c(20), Lat: c(2)},
		},
		EdgesTotal: 1,
		DoneCycles: []int64{30, 50},
	}
	m, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0's chain predicts 28 + 2·LatScale cycles; node 1's rigid 50
	// cycles hide the stretch until LatScale exceeds 11.
	for _, s := range []float64{1, 5, 11} {
		if got := m.Solve(Point{LatScale: s, BWScale: 1}).Cycles; got != 50 {
			t.Errorf("Solve(lat×%v) = %d cycles, want 50 (imbalance slack should absorb)", s, got)
		}
	}
	if got := m.Solve(Point{LatScale: 16, BWScale: 1}).Cycles; got != 60 {
		t.Errorf("Solve(lat×16) = %d cycles, want 60 (10 cycles past the slack)", got)
	}
}

// TestBuildRejectsBadEdges: node indexes outside the machine, negative
// spans and negative latency or bandwidth parts are construction
// errors, not solver surprises.
func TestBuildRejectsBadEdges(t *testing.T) {
	clk := testClock()
	base := Input{Nodes: 1, Clk: clk, DoneCycles: []int64{10}}
	bad := base
	bad.Edges = []obs.CritEdge{{Kind: obs.EdgeMiss, Src: 0, Dst: 3, Start: 0, End: 1}}
	if _, err := Build(bad); err == nil {
		t.Error("edge to node 3 of a 1-node machine built without error")
	}
	bad = base
	bad.Edges = []obs.CritEdge{{Kind: obs.EdgeMiss, Src: 0, Dst: 0, Start: 5, End: 2}}
	if _, err := Build(bad); err == nil {
		t.Error("backward edge built without error")
	}
	// A negative part would push the fixed part past the edge span, and
	// the solve would then shrink as LatScale grows.
	for _, e := range []obs.CritEdge{
		{Kind: obs.EdgeMiss, Src: 0, Dst: 0, Start: 0, End: 5, Lat: -1},
		{Kind: obs.EdgeMsg, Src: 0, Dst: 0, Start: 0, End: 5, Lat: 2, BW: -3},
	} {
		bad = base
		bad.Edges = []obs.CritEdge{e}
		_, err := Build(bad)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%+v", e)) {
			t.Errorf("edge %+v: Build error %v, want one naming the edge", e, err)
		}
	}
	bad = base
	bad.DoneCycles = nil
	if _, err := Build(bad); err == nil {
		t.Error("missing completion profile built without error")
	}
}

// TestBuildClampsDecomposition: a recorded lat+bw larger than the edge
// span (which the recorder should never produce, but the model must
// not trust) is clamped so the fixed part stays nonnegative and the
// base solve stays exact.
func TestBuildClampsDecomposition(t *testing.T) {
	clk := testClock()
	c := clk.Cycles
	in := Input{
		Nodes: 1,
		Clk:   clk,
		Edges: []obs.CritEdge{
			{Kind: obs.EdgeMiss, Src: 0, Dst: 0, Start: c(1), End: c(3), Lat: c(5), BW: c(5)},
		},
		EdgesTotal: 1,
		DoneCycles: []int64{10},
	}
	m, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Solve(Base).Cycles; got != 10 {
		t.Errorf("Solve(Base) with clamped edge = %d cycles, want 10", got)
	}
}

// TestConfidence: full retention at idle utilization is fully trusted;
// eviction and congestion each discount it.
func TestConfidence(t *testing.T) {
	in := twoNodeInput()
	m, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Solve(Base).Confidence; got != 1 {
		t.Errorf("confidence = %v with full retention and no traffic, want 1", got)
	}
	in.EdgesTotal = 8 // half the stream evicted
	m, err = Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.coverage; got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	// A run whose traffic saturates the cut halves the trust again.
	in.BisectionBytes = 1e12
	in.BisectionBW = 1
	m, err = Build(in)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Solve(Base)
	if p.Rho < 1 {
		t.Fatalf("rho = %v, want saturated (>= 1)", p.Rho)
	}
	if p.Confidence != 0.25 {
		t.Errorf("confidence = %v at coverage 0.5 and rho >= 1, want 0.25", p.Confidence)
	}
}

// TestExtraRho: utilization the model's edges cannot see (cross
// traffic) discounts confidence without touching the predicted cycles.
func TestExtraRho(t *testing.T) {
	m, err := Build(twoNodeInput())
	if err != nil {
		t.Fatal(err)
	}
	plain := m.Solve(Base)
	loaded := m.Solve(Point{LatScale: 1, BWScale: 1, ExtraRho: 0.6})
	if loaded.Cycles != plain.Cycles {
		t.Errorf("ExtraRho changed the prediction: %d vs %d cycles", loaded.Cycles, plain.Cycles)
	}
	if loaded.Rho != plain.Rho+0.6 {
		t.Errorf("rho = %v, want %v", loaded.Rho, plain.Rho+0.6)
	}
	if loaded.Confidence >= plain.Confidence {
		t.Errorf("confidence %v not discounted (was %v)", loaded.Confidence, plain.Confidence)
	}
}

// TestLatencyTolerance: the hand-built DAG has 9 cycles of latency on
// a 32-cycle base, so a 10% growth target (35.2 cycles) is crossed at
// a small finite scale; an edge-free run never crosses it.
func TestLatencyTolerance(t *testing.T) {
	m, err := Build(twoNodeInput())
	if err != nil {
		t.Fatal(err)
	}
	s := m.LatencyTolerance(0.10)
	if math.IsInf(s, 1) || s <= 1 {
		t.Fatalf("latency tolerance = %v, want a finite scale > 1", s)
	}
	at := m.Solve(Point{LatScale: s, BWScale: 1}).Cycles
	below := m.Solve(Point{LatScale: s * 0.99, BWScale: 1}).Cycles
	if float64(at) < 1.1*32 {
		t.Errorf("runtime at the reported tolerance = %d cycles, want >= 35.2", at)
	}
	if float64(below) >= 1.1*32 && below != at {
		t.Errorf("runtime just below the tolerance = %d cycles, already past the target", below)
	}

	quiet := Input{Nodes: 1, Clk: testClock(), DoneCycles: []int64{100}}
	qm, err := Build(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if s := qm.LatencyTolerance(0.10); !math.IsInf(s, 1) {
		t.Errorf("edge-free run reports finite latency tolerance %v", s)
	}
}

// TestSolveDeterministic: repeated solves of one model are identical —
// the in-package half of the race-certified determinism test that
// lives in internal/core.
func TestSolveDeterministic(t *testing.T) {
	m, err := Build(twoNodeInput())
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{Base, {LatScale: 3.7, BWScale: 1.9}, {LatScale: 128, BWScale: 4}}
	var first []Prediction
	for round := 0; round < 3; round++ {
		var got []Prediction
		for _, pt := range pts {
			got = append(got, m.Solve(pt))
		}
		if round == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("solve round %d diverged: %+v vs %+v", round, got, first)
		}
	}
}
