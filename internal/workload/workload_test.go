package workload

import (
	"math"
	"testing"
	"testing/quick"
)

// --- RCB ---

func TestRCBBalanced(t *testing.T) {
	g := NewMoldyn(DefaultMoldynParams())
	sizes := partSizes(g.Part, 32)
	min, max := 1<<30, 0
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 1 {
		t.Errorf("RCB imbalance: sizes %v", sizes)
	}
}

func TestRCBDeterministic(t *testing.T) {
	pts := NewMoldyn(DefaultMoldynParams()).Pos
	a := RCB(pts, 8)
	b := RCB(pts, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RCB nondeterministic")
		}
	}
}

func TestRCBSpatialLocality(t *testing.T) {
	// Points in the same part should be closer on average than points in
	// different parts.
	b := NewMoldyn(DefaultMoldynParams())
	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < 500; i++ {
		for j := i + 1; j < 500; j++ {
			d := math.Sqrt(dist2(b.Pos[i], b.Pos[j]))
			if b.Part[i] == b.Part[j] {
				sameSum += d
				sameN++
			} else {
				crossSum += d
				crossN++
			}
		}
	}
	if sameSum/float64(sameN) >= crossSum/float64(crossN) {
		t.Errorf("no spatial locality: same-part avg %.3f >= cross %.3f",
			sameSum/float64(sameN), crossSum/float64(crossN))
	}
}

func TestRCBBadPartsPanics(t *testing.T) {
	for _, n := range []int{0, 3, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RCB(%d parts) did not panic", n)
				}
			}()
			RCB([]Point3{{}, {}}, n)
		}()
	}
}

// --- EM3D ---

func TestEM3DShape(t *testing.T) {
	p := DefaultEM3DParams().Scaled(2000, 5)
	g := NewEM3D(p)
	if len(g.EAdj) != 2000 || len(g.HAdj) != 2000 {
		t.Fatal("wrong node counts")
	}
	for i := range g.EAdj {
		if len(g.EAdj[i]) != p.Degree {
			t.Fatalf("E node %d degree %d", i, len(g.EAdj[i]))
		}
	}
	frac := g.RemoteEdgeFraction()
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("remote fraction = %.3f, want ~0.20", frac)
	}
}

func TestEM3DSpanRespected(t *testing.T) {
	p := DefaultEM3DParams().Scaled(3200, 1)
	g := NewEM3D(p)
	check := func(adj [][]int32) {
		for i, nbrs := range adj {
			for _, j := range nbrs {
				oi, oj := int(g.Owner[i]), int(g.Owner[j])
				d := oi - oj
				if d < 0 {
					d = -d
				}
				if d > p.Span && d < p.Procs-p.Span {
					t.Fatalf("edge %d->%d spans %d procs (> span %d)", i, j, d, p.Span)
				}
			}
		}
	}
	check(g.EAdj)
	check(g.HAdj)
}

func TestEM3DDeterministic(t *testing.T) {
	p := DefaultEM3DParams().Scaled(500, 1)
	a, b := NewEM3D(p), NewEM3D(p)
	for i := range a.EAdj {
		for d := range a.EAdj[i] {
			if a.EAdj[i][d] != b.EAdj[i][d] || a.ECoef[i][d] != b.ECoef[i][d] {
				t.Fatal("EM3D generation nondeterministic")
			}
		}
	}
}

func TestEM3DReferenceEvolves(t *testing.T) {
	g := NewEM3D(DefaultEM3DParams().Scaled(200, 3))
	e, h := g.Reference(3)
	diff := 0
	for i := range e {
		if e[i] != g.EInit[i] || h[i] != g.HInit[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("reference computation changed nothing")
	}
	for i := range e {
		if math.IsNaN(e[i]) || math.IsInf(e[i], 0) {
			t.Fatalf("E[%d] = %v", i, e[i])
		}
	}
}

// --- UNSTRUC ---

func TestUnstrucShape(t *testing.T) {
	m := NewUnstruc(DefaultUnstrucParams())
	if len(m.Coords) != 2000 {
		t.Fatalf("nodes = %d", len(m.Coords))
	}
	if len(m.Edges) < 2000 {
		t.Errorf("suspiciously few edges: %d", len(m.Edges))
	}
	// Degrees must be irregular.
	degs := map[int]int{}
	for _, es := range m.NodeEdges {
		degs[len(es)]++
	}
	if len(degs) < 3 {
		t.Errorf("degree distribution too regular: %v", degs)
	}
	// RCB should keep most edges local.
	if f := m.RemoteEdgeFraction(); f > 0.5 {
		t.Errorf("remote edge fraction %.2f too high for RCB", f)
	}
}

func TestUnstrucNoSelfOrOutOfRangeEdges(t *testing.T) {
	m := NewUnstruc(DefaultUnstrucParams())
	for _, ed := range m.Edges {
		if ed[0] == ed[1] {
			t.Fatal("self edge")
		}
		if ed[0] < 0 || ed[1] < 0 || int(ed[0]) >= len(m.Coords) || int(ed[1]) >= len(m.Coords) {
			t.Fatal("edge out of range")
		}
	}
}

func TestUnstrucReferenceStable(t *testing.T) {
	m := NewUnstruc(DefaultUnstrucParams().Scaled(300, 5))
	s := m.Reference(5)
	for i := range s {
		for k := 0; k < 3; k++ {
			if math.IsNaN(s[i][k]) || math.Abs(s[i][k]) > 100 {
				t.Fatalf("state[%d][%d] = %v diverged", i, k, s[i][k])
			}
		}
	}
}

func TestEdgeContribAntisymmetricUse(t *testing.T) {
	prop := func(a0, a1, a2, b0, b1, b2 float64) bool {
		a := [3]float64{clamp(a0), clamp(a1), clamp(a2)}
		b := [3]float64{clamp(b0), clamp(b1), clamp(b2)}
		ab := EdgeContrib(a, b)
		ba := EdgeContrib(b, a)
		for k := 0; k < 3; k++ {
			if ab[k] != -ba[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 10)
}

// --- ICCG ---

func TestICCGDAGAcyclic(t *testing.T) {
	s := NewICCG(DefaultICCGParams())
	for i, preds := range s.Preds {
		for _, j := range preds {
			if int(j) >= i {
				t.Fatalf("row %d has predecessor %d (not strictly lower)", i, j)
			}
		}
	}
}

func TestICCGSuccsMirrorPreds(t *testing.T) {
	s := NewICCG(DefaultICCGParams().Scaled(500))
	count := 0
	for j, succs := range s.Succs {
		for _, i := range succs {
			found := false
			for _, pj := range s.Preds[i] {
				if int(pj) == j {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("succ edge %d->%d has no pred mirror", j, i)
			}
			count++
		}
	}
	if count != s.nnz() {
		t.Errorf("succ edges %d != nnz %d", count, s.nnz())
	}
}

func TestICCGSolveCorrect(t *testing.T) {
	s := NewICCG(DefaultICCGParams().Scaled(1000))
	x := s.Reference()
	// Verify Lx = b by recomputing.
	for i := 0; i < 1000; i++ {
		acc := s.Diag[i] * x[i]
		for k, j := range s.Preds[i] {
			acc += s.PredsW[i][k] * x[j]
		}
		if math.Abs(acc-s.B[i]) > 1e-9 {
			t.Fatalf("row %d: Lx = %v, b = %v", i, acc, s.B[i])
		}
	}
}

func TestICCGHasDeepDAG(t *testing.T) {
	s := NewICCG(DefaultICCGParams())
	_, nLevels := s.levels()
	if nLevels < 50 {
		t.Errorf("DAG only %d levels; not challenging enough", nLevels)
	}
	if f := s.RemoteEdgeFraction(); f < 0.3 {
		t.Errorf("remote edge fraction %.2f; block-cyclic should communicate heavily", f)
	}
}

// --- MOLDYN ---

func TestMoldynPairsSymmetricAndInRange(t *testing.T) {
	b := NewMoldyn(DefaultMoldynParams().Scaled(512, 1))
	pairs := BuildPairs(b.Pos, b.P.Box, b.P.Cutoff)
	if len(pairs) == 0 {
		t.Fatal("no interaction pairs")
	}
	r2 := 4 * b.P.Cutoff * b.P.Cutoff
	seen := map[[2]int32]bool{}
	for _, pr := range pairs {
		if pr[0] >= pr[1] {
			t.Fatal("pair not ordered")
		}
		if dist2(b.Pos[pr[0]], b.Pos[pr[1]]) > r2 {
			t.Fatal("pair outside 2*cutoff")
		}
		if seen[pr] {
			t.Fatal("duplicate pair")
		}
		seen[pr] = true
	}
}

func TestMoldynPairsComplete(t *testing.T) {
	// Brute force check on a small box.
	b := NewMoldyn(MoldynParams{Molecules: 100, Box: 4, Cutoff: 0.9, Iters: 1, ListEvery: 1, Procs: 4, Seed: 9})
	pairs := BuildPairs(b.Pos, b.P.Box, b.P.Cutoff)
	want := 0
	r2 := 4 * b.P.Cutoff * b.P.Cutoff
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			if dist2(b.Pos[i], b.Pos[j]) <= r2 {
				want++
			}
		}
	}
	if len(pairs) != want {
		t.Errorf("cell-list pairs %d != brute force %d", len(pairs), want)
	}
}

func TestMoldynReferenceConservesRoughly(t *testing.T) {
	b := NewMoldyn(DefaultMoldynParams().Scaled(256, 10))
	pos, vel := b.Reference()
	for i := range pos {
		if math.IsNaN(pos[i].X) || math.Abs(pos[i].X) > 100 {
			t.Fatalf("molecule %d diverged: %+v", i, pos[i])
		}
		_ = vel
	}
}

func TestPairForceNewtonThirdLaw(t *testing.T) {
	a := Point3{1, 1, 1}
	b := Point3{1.5, 1.2, 0.9}
	f1 := PairForce(a, b, 1.3)
	f2 := PairForce(b, a, 1.3)
	if f1.X != -f2.X || f1.Y != -f2.Y || f1.Z != -f2.Z {
		t.Error("force not antisymmetric")
	}
	// Outside cutoff: zero.
	far := PairForce(Point3{0, 0, 0}, Point3{5, 5, 5}, 1.3)
	if far != (Point3{}) {
		t.Error("force beyond cutoff not zero")
	}
}

// TestGeneratorGoldenStats pins the deterministic generators' summary
// statistics: any unintended change to seeds, distribution logic, or
// iteration order shows up here before it silently shifts every
// experiment in EXPERIMENTS.md.
func TestGeneratorGoldenStats(t *testing.T) {
	em := NewEM3D(DefaultEM3DParams())
	if got := len(em.EAdj) * em.P.Degree; got != 100000 {
		t.Errorf("EM3D E-edges = %d, want 100000", got)
	}
	un := NewUnstruc(DefaultUnstrucParams())
	ic := NewICCG(DefaultICCGParams())
	mo := NewMoldyn(DefaultMoldynParams())
	pairs := BuildPairs(mo.Pos, mo.P.Box, mo.P.Cutoff)
	golden := []struct {
		name string
		got  int
		want int
	}{
		{"unstruc edges", len(un.Edges), 5032},
		{"iccg nnz", ic.nnz(), 32006},
		{"moldyn pairs", len(pairs), 30730},
	}
	for _, g := range golden {
		if g.got != g.want {
			t.Errorf("%s = %d, want %d (generator changed?)", g.name, g.got, g.want)
		}
	}
}

func TestScaledBoxPreservesDensity(t *testing.T) {
	p := DefaultMoldynParams()
	d0 := float64(p.Molecules) / (p.Box * p.Box * p.Box)
	q := p.ScaledBox(256, 4)
	d1 := float64(q.Molecules) / (q.Box * q.Box * q.Box)
	if math.Abs(d1-d0)/d0 > 0.01 {
		t.Errorf("density changed: %.4f -> %.4f", d0, d1)
	}
	if q.Molecules != 256 || q.Iters != 4 {
		t.Errorf("scaled params wrong: %+v", q)
	}
}

func TestUnstrucFaces(t *testing.T) {
	m := NewUnstruc(DefaultUnstrucParams())
	if len(m.Faces) < 500 {
		t.Fatalf("only %d faces", len(m.Faces))
	}
	for _, fc := range m.Faces {
		seen := map[int32]bool{}
		for _, v := range fc {
			if v < 0 || int(v) >= len(m.Coords) {
				t.Fatal("face corner out of range")
			}
			if seen[v] {
				t.Fatal("degenerate face")
			}
			seen[v] = true
		}
	}
	// FaceContrib antisymmetry under corner rotation by two.
	a := [3]float64{1, 2, 3}
	b := [3]float64{4, 5, 6}
	c := [3]float64{7, 8, 9}
	d := [3]float64{2, 4, 8}
	f1 := FaceContrib(a, b, c, d)
	f2 := FaceContrib(b, c, d, a)
	for k := 0; k < 3; k++ {
		if f1[k] != -f2[k] {
			t.Errorf("face contrib not antisymmetric under rotation: %v vs %v", f1, f2)
		}
	}
}
