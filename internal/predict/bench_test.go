package predict

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

// benchInput is a synthetic run about the size of a predict-workload
// model, 30k events on 32 processors once Build drops the directory
// transactions, so the benchmarks need no simulation. Its edges come in
// the (End, Start) order obs.CritRecorder.Edges returns.
func benchInput() Input {
	in := randomInput(rand.New(rand.NewSource(1)), 32, 40_000, 1e9)
	slices.SortStableFunc(in.Edges, func(a, b obs.CritEdge) int {
		if c := cmp.Compare(a.End, b.End); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
	return in
}

func benchModel(b *testing.B) *Model {
	m, err := Build(benchInput())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

var (
	sinkModel *Model
	sinkPred  Prediction
	sinkTol   float64
)

// BenchmarkBuild compiles the recorded edges into a model: validation,
// the sort and the folding of point-independent terms.
func BenchmarkBuild(b *testing.B) {
	in := benchInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Build(in)
		if err != nil {
			b.Fatal(err)
		}
		sinkModel = m
	}
}

// BenchmarkSolve is one point of the predict workload's 12×12 grid.
func BenchmarkSolve(b *testing.B) {
	m := benchModel(b)
	grid := []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPred = m.Solve(Point{LatScale: grid[i%len(grid)], BWScale: grid[i/len(grid)%len(grid)]})
	}
}

// BenchmarkLatencyTolerance is one tolerance search: a doubling search
// and a 50-step bisection over LatScale.
func BenchmarkLatencyTolerance(b *testing.B) {
	m := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTol = m.LatencyTolerance(0.10)
	}
}
