package obs_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// clk20 converts at 50,000 ps per cycle; the edges below are whole
// cycles so every summary field is exact.
var clk20 = sim.NewClock(20)

func cyc(n int64) sim.Time { return clk20.Cycles(n) }

// TestTopEdgesTiesKeepRingOrder records edges that tie on every rank key
// (length, start, source, destination, kind) and differ only in Lat, in
// a ring that has wrapped: the survivors are the oldest retained edges,
// in recording order, behind the one strictly longer edge.
func TestTopEdgesTiesKeepRingOrder(t *testing.T) {
	r := obs.NewCritRecorder(1, 4)
	for lat := int64(0); lat < 6; lat++ {
		end := int64(10)
		if lat == 4 {
			end = 11 // strictly longer: ranks first
		}
		r.Edge(obs.CritEdge{Kind: obs.EdgeMsg, Src: 1, Dst: 2, Start: cyc(5), End: cyc(end), Lat: cyc(lat)})
	}
	// Retained, oldest first: Lat 2, 3, 4 (longer), 5.
	s := r.Summarize(clk20, 0, stats.Breakdown{}, 3)
	var got []int64
	for _, e := range s.TopEdges {
		got = append(got, e.LatCycles)
	}
	if want := []int64{4, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("top edges by Lat = %v, want %v", got, want)
	}
}

// TestTopEdgesTiesAcrossChunks: in a wrapped ring of two chunks (4096
// slots, then 100), tied edges sit at the end of the first chunk, the
// start and end of the second and, after the wrap, the start of the
// first. They survive in recording order, and a tied edge the ring
// evicted does not.
func TestTopEdgesTiesAcrossChunks(t *testing.T) {
	const capacity, adds = 4096 + 100, 8000 // retains edges 3804-7999
	longer := []int64{10, 4094, 4095, 4096, 4097, 4194, 4195, 4196, 4197}
	r := obs.NewCritRecorder(1, capacity)
	for lat := int64(0); lat < adds; lat++ {
		end := int64(10)
		if slices.Contains(longer, lat) {
			end = 11
		}
		r.Edge(obs.CritEdge{Kind: obs.EdgeMiss, Src: 1, Dst: 2, Start: cyc(5), End: cyc(end), Lat: cyc(lat)})
	}
	s := r.Summarize(clk20, 0, stats.Breakdown{}, 7)
	var got []int64
	for _, e := range s.TopEdges {
		got = append(got, e.LatCycles)
	}
	if want := []int64{4094, 4095, 4096, 4097, 4194, 4195, 4196}; !slices.Equal(got, want) {
		t.Errorf("top edges by Lat = %v, want %v", got, want)
	}
}

// TestTopEdgesMatchStableSorts checks the one-pass selection against the
// two stable sorts it replaced, on random edges whose keys collide often.
func TestTopEdgesMatchStableSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []obs.EdgeKind{obs.EdgeMsg, obs.EdgeMiss, obs.EdgeTxn, obs.EdgeBarrier}
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(12)
		r := obs.NewCritRecorder(1, capacity)
		var all []obs.CritEdge
		for i := rng.Intn(30); i > 0; i-- {
			start := int64(rng.Intn(4))
			e := obs.CritEdge{
				Kind: kinds[rng.Intn(len(kinds))], Src: rng.Intn(3), Dst: rng.Intn(3),
				Start: cyc(start), End: cyc(start + int64(rng.Intn(4))), Lat: cyc(int64(i)),
			}
			r.Edge(e)
			all = append(all, e)
		}
		if len(all) > capacity {
			all = all[len(all)-capacity:]
		}
		topN := 1 + rng.Intn(6)
		want := reference(all, topN)
		got := r.Summarize(clk20, 0, stats.Breakdown{}, topN).TopEdges
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d top edges, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: top edge %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// reference is the summary's former selection: the retained edges
// stable-sorted by (End, Start), then stable-sorted by rank, kinds by
// name.
func reference(edges []obs.CritEdge, topN int) []obs.CritEdgeSummary {
	edges = append([]obs.CritEdge(nil), edges...)
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].End != edges[j].End {
			return edges[i].End < edges[j].End
		}
		return edges[i].Start < edges[j].Start
	})
	sort.SliceStable(edges, func(i, j int) bool {
		di, dj := edges[i].End-edges[i].Start, edges[j].End-edges[j].Start
		if di != dj {
			return di > dj
		}
		if edges[i].Start != edges[j].Start {
			return edges[i].Start < edges[j].Start
		}
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Dst != edges[j].Dst {
			return edges[i].Dst < edges[j].Dst
		}
		return edges[i].Kind.String() < edges[j].Kind.String()
	})
	if len(edges) > topN {
		edges = edges[:topN]
	}
	var out []obs.CritEdgeSummary
	for _, e := range edges {
		out = append(out, obs.CritEdgeSummary{
			Kind: e.Kind.String(), Src: e.Src, Dst: e.Dst,
			StartCycles: clk20.ToCycles(e.Start), EndCycles: clk20.ToCycles(e.End),
			LatCycles: clk20.ToCycles(e.Lat), BWCycles: clk20.ToCycles(e.BW),
		})
	}
	return out
}
