package workload

import (
	"math/rand"
)

// ICCGParams parameterizes the synthetic sparse lower-triangular system
// standing in for the paper's BCSSTK32 (a 2-million-element Harwell-Boeing
// structural matrix that cannot be shipped here). The generator produces
// an irregular banded sparsity pattern whose elimination DAG has the same
// character: deep, irregular, ~2 FLOPs per edge.
type ICCGParams struct {
	Rows  int
	Band  int // predecessors are drawn from the previous Band rows
	MinIn int // min sub-diagonal nonzeros per row (where available)
	MaxIn int // max sub-diagonal nonzeros per row
	Procs int
	Chunk int // block-cyclic row distribution chunk
	Seed  int64
}

// DefaultICCGParams gives a DAG of paper-like character at tractable size.
func DefaultICCGParams() ICCGParams {
	return ICCGParams{Rows: 8000, Band: 64, MinIn: 2, MaxIn: 6, Procs: 32, Chunk: 4, Seed: 3}
}

// Scaled returns a reduced instance.
func (p ICCGParams) Scaled(rows int) ICCGParams {
	p.Rows = rows
	return p
}

// ICCGSystem is the generated triangular system Lx = b plus its
// dataflow structure: Preds[i] are the rows j<i with L[i][j] != 0 (the
// incoming DAG edges of row i), Succs mirrors them.
type ICCGSystem struct {
	P      ICCGParams
	Preds  [][]int32
	PredsW [][]float64 // L[i][j] for each predecessor
	Succs  [][]int32
	Diag   []float64
	B      []float64
	Part   []int // owner of each row (block-cyclic)
}

// NewICCG generates the system deterministically.
func NewICCG(p ICCGParams) *ICCGSystem {
	rng := rand.New(rand.NewSource(p.Seed))
	s := &ICCGSystem{P: p}
	n := p.Rows
	s.Preds = make([][]int32, n)
	s.PredsW = make([][]float64, n)
	s.Succs = make([][]int32, n)
	s.Diag = make([]float64, n)
	s.B = make([]float64, n)
	for i := 0; i < n; i++ {
		s.Diag[i] = 2 + rng.Float64() // well-conditioned
		s.B[i] = rng.Float64()*2 - 1
		lo := i - p.Band
		if lo < 0 {
			lo = 0
		}
		avail := i - lo
		k := 0
		if avail > 0 {
			k = p.MinIn + rng.Intn(p.MaxIn-p.MinIn+1)
			if k > avail {
				k = avail
			}
		}
		seen := make(map[int32]bool, k)
		for len(seen) < k {
			j := int32(lo + rng.Intn(avail))
			if !seen[j] {
				seen[j] = true
				s.Preds[i] = append(s.Preds[i], j)
				s.PredsW[i] = append(s.PredsW[i], (rng.Float64()-0.5)*0.5)
			}
		}
		for _, j := range s.Preds[i] {
			s.Succs[j] = append(s.Succs[j], int32(i))
		}
	}
	// Block-cyclic row ownership.
	s.Part = make([]int, n)
	for i := range s.Part {
		s.Part[i] = (i / p.Chunk) % p.Procs
	}
	return s
}

// ICCGFlopsPerEdge: subtract and multiply per incoming edge.
const ICCGFlopsPerEdge = 2

// nnz returns the number of sub-diagonal nonzeros (DAG edges).
func (s *ICCGSystem) nnz() int {
	t := 0
	for _, p := range s.Preds {
		t += len(p)
	}
	return t
}

// RemoteEdgeFraction reports the fraction of DAG edges crossing owners.
func (s *ICCGSystem) RemoteEdgeFraction() float64 {
	remote, total := 0, 0
	for i, preds := range s.Preds {
		for _, j := range preds {
			total++
			if s.Part[i] != s.Part[j] {
				remote++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(remote) / float64(total)
}

// levels returns the DAG level of each row (longest path from a source)
// and the number of levels — the critical-path structure that makes
// ICCG's parallelism so challenging.
func (s *ICCGSystem) levels() ([]int, int) {
	lv := make([]int, s.P.Rows)
	max := 0
	for i := 0; i < s.P.Rows; i++ {
		for _, j := range s.Preds[i] {
			if lv[j]+1 > lv[i] {
				lv[i] = lv[j] + 1
			}
		}
		if lv[i] > max {
			max = lv[i]
		}
	}
	return lv, max + 1
}

// Reference solves Lx = b sequentially by forward substitution.
func (s *ICCGSystem) Reference() []float64 {
	x := make([]float64, s.P.Rows)
	for i := 0; i < s.P.Rows; i++ {
		acc := s.B[i]
		for k, j := range s.Preds[i] {
			acc -= s.PredsW[i][k] * x[j]
		}
		x[i] = acc / s.Diag[i]
	}
	return x
}
