package unstruc

import (
	"fmt"
	"sort"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/psync"
	"repro/internal/workload"
)

const (
	edgeOverheadCycles  = 6  // index arithmetic per edge
	flushOverheadCycles = 4  // per-node flush bookkeeping
	updateFlopCycles    = 12 // 3-component node update
	stateGhostPerMsg    = 2  // nodes per fine-grained state message
)

// App is one UNSTRUC instance.
type App struct {
	par  workload.UnstrucParams
	mesh *workload.UnstrucMesh
	m    *machine.Machine
	mech apps.Mechanism

	stateAddr []mem.Addr // base of 3 state words (padded line-aligned)
	accumAddr []mem.Addr // base of [lock, a0, a1, a2] block
	locks     []*psync.SpinLock

	myEdges   [][]int32    // edges computed by each proc
	myFaces   [][]int32    // faces computed by each proc
	myNodes   [][]int32    // nodes owned by each proc
	touched   [][]int32    // nodes each proc accumulates into
	stateRead [][]mem.Addr // resolved state base per node per proc (MP ghosts)

	// MP machinery: node-state ghosts and accumulator flushes.
	state *apps.Ghosts
	flush *apps.Flush

	bar psync.Barrier
}

// New generates the mesh.
func New(p workload.UnstrucParams) *App {
	return &App{par: p, mesh: workload.NewUnstruc(p)}
}

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine, mech apps.Mechanism) {
	a.m, a.mech = m, mech
	n := a.par.Nodes
	procs := a.par.Procs

	a.stateAddr = make([]mem.Addr, n)
	a.accumAddr = make([]mem.Addr, n)
	a.locks = make([]*psync.SpinLock, n)
	a.myNodes = make([][]int32, procs)
	for i := 0; i < n; i++ {
		pr := a.mesh.Part[i]
		a.myNodes[pr] = append(a.myNodes[pr], int32(i))
		a.stateAddr[i] = m.Alloc(pr, 4) // 3 state words, line padded
		a.accumAddr[i] = m.Alloc(pr, 4) // [lock, a0] [a1, a2]
		for k := 0; k < 3; k++ {
			m.Store.Poke(a.stateAddr[i]+mem.Addr(k), a.mesh.Init[i][k])
		}
		a.locks[i] = psync.LockAt(m, a.accumAddr[i])
	}

	// Edge ownership: the owner of endpoint A computes the edge.
	a.myEdges = make([][]int32, procs)
	touchSet := make([]map[int32]bool, procs)
	for pr := range touchSet {
		touchSet[pr] = make(map[int32]bool)
	}
	counts := make([]int, procs)
	for e, ed := range a.mesh.Edges {
		// Boundary edges go to whichever endpoint's processor currently
		// has fewer edges (deterministic greedy balance).
		pr := a.mesh.Part[ed[0]]
		if o2 := a.mesh.Part[ed[1]]; o2 != pr && counts[o2] < counts[pr] {
			pr = o2
		}
		counts[pr]++
		a.myEdges[pr] = append(a.myEdges[pr], int32(e))
		touchSet[pr][ed[0]] = true
		touchSet[pr][ed[1]] = true
	}
	// Faces go to the least-loaded owner among their corners.
	a.myFaces = make([][]int32, procs)
	for f, fc := range a.mesh.Faces {
		pr := a.mesh.Part[fc[0]]
		for _, v := range fc[1:] {
			if o := a.mesh.Part[v]; counts[o] < counts[pr] {
				pr = o
			}
		}
		counts[pr]++
		a.myFaces[pr] = append(a.myFaces[pr], int32(f))
		for _, v := range fc {
			touchSet[pr][v] = true
		}
	}
	a.touched = make([][]int32, procs)
	for pr, set := range touchSet {
		for i := range set {
			a.touched[pr] = append(a.touched[pr], i)
		}
		sort.Slice(a.touched[pr], func(x, y int) bool { return a.touched[pr][x] < a.touched[pr][y] })
	}

	if mech.UsesMessages() {
		a.setupMP()
	} else {
		a.stateRead = make([][]mem.Addr, procs)
		for pr := 0; pr < procs; pr++ {
			a.stateRead[pr] = a.stateAddr // direct remote reads
		}
	}
	a.bar = apps.NewBarrier(m, mech)
}

// setupMP plans ghost shipping for node state and the accumulator
// flushes. A processor reads the state of exactly the nodes it
// accumulates into, so both are planned from the touched lists.
func (a *App) setupMP() {
	procs := a.par.Procs
	a.stateRead = make([][]mem.Addr, procs)
	for c := range a.stateRead {
		a.stateRead[c] = append([]mem.Addr(nil), a.stateAddr...)
	}
	stateH := a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		base := mem.Addr(args[0])
		for k, v := range vals {
			a.m.Store.Poke(base+mem.Addr(k), v)
		}
		a.state.Arrived(c.Node)
	})
	a.state = apps.NewGhosts(a.touched, a.mesh.Part, stateGhostPerMsg, a.mech, stateH, func(s apps.Shipment) mem.Addr {
		base := a.m.Alloc(s.To, 3*len(s.Items)+1)
		for k, v := range s.Items {
			a.stateRead[s.To][v] = base + mem.Addr(3*k)
		}
		return base
	})
	accumH := a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		base := mem.Addr(args[0])
		for k := 0; k < 3; k++ {
			a.m.Store.Poke(base+mem.Addr(1+k), a.m.Store.Peek(base+mem.Addr(1+k))+vals[k])
		}
		a.flush.Arrived(c.Node)
	})
	bulkAccH := a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		// args[k] is the accum base of the k-th node; vals in triples.
		c.Overhead(am.GatherScatterCycles(len(vals)))
		for k, arg := range args {
			base := mem.Addr(arg)
			for j := 0; j < 3; j++ {
				a.m.Store.Poke(base+mem.Addr(1+j), a.m.Store.Peek(base+mem.Addr(1+j))+vals[3*k+j])
			}
		}
		a.flush.Arrived(c.Node)
	})
	a.flush = apps.NewFlush(a.touched, a.mesh.Part, a.mech, accumH, bulkAccH)
}

// Body implements apps.App.
func (a *App) Body(p *machine.Proc) {
	if a.mech.UsesMessages() {
		p.SetRecvMode(a.mech.RecvMode())
	}
	priv := make(map[int32]*[3]float64, len(a.touched[p.ID]))
	for it := 0; it < a.par.Iters; it++ {
		if a.mech.UsesMessages() {
			a.shipState(p)
		}
		a.edgePhase(p, priv)
		a.flushPhase(p, priv)
		a.bar.Wait(p)
		a.updatePhase(p)
		a.bar.Wait(p)
	}
}

// shipState pushes node states to consumers, stateGhostPerMsg nodes per
// fine-grained message, and waits for own ghosts.
func (a *App) shipState(p *machine.Proc) {
	a.state.Exchange(p, func(args []int64, vals []float64, s *apps.Shipment, off int, nodes []int32) ([]int64, []float64) {
		for _, v := range nodes {
			for k := 0; k < 3; k++ {
				vals = append(vals, p.Peek(a.stateAddr[v]+mem.Addr(k)))
			}
		}
		return append(args, int64(s.Base)+int64(3*off)), vals
	})
}

// readState loads a node's 3-component state through the cache (real
// location for SM, local ghost for MP).
func (a *App) readState(p *machine.Proc, node int32) [3]float64 {
	base := a.stateRead[p.ID][node]
	var s [3]float64
	for k := 0; k < 3; k++ {
		s[k] = p.Read(base + mem.Addr(k))
	}
	return s
}

// edgePhase computes all of this processor's edges into private
// accumulators.
func (a *App) edgePhase(p *machine.Proc, priv map[int32]*[3]float64) {
	pf := a.mech.UsesPrefetch()
	edges := a.myEdges[p.ID]
	for idx, e := range edges {
		ed := a.mesh.Edges[e]
		u, v := ed[0], ed[1]
		if pf && idx+2 < len(edges) {
			// Read-prefetch the state of the edge two computations ahead.
			nxt := a.mesh.Edges[edges[idx+2]]
			p.Prefetch(a.stateRead[p.ID][nxt[0]], false)
			p.Prefetch(a.stateRead[p.ID][nxt[1]], false)
		}
		su := a.readState(p, u)
		sv := a.readState(p, v)
		c := workload.EdgeContrib(su, sv)
		p.Compute(workload.UnstrucFlopsPerEdge*apps.CyclesPerFlop + edgeOverheadCycles)
		au := privAt(priv, u)
		av := privAt(priv, v)
		for k := 0; k < 3; k++ {
			au[k] += c[k]
			av[k] -= c[k]
		}
		a.mech.ComputePoll(p, idx)
	}
	// Face phase: each face reads its four corners and accumulates with
	// alternating sign.
	for fi, f := range a.myFaces[p.ID] {
		fc := a.mesh.Faces[f]
		s0 := a.readState(p, fc[0])
		s1 := a.readState(p, fc[1])
		s2 := a.readState(p, fc[2])
		s3 := a.readState(p, fc[3])
		c := workload.FaceContrib(s0, s1, s2, s3)
		p.Compute(workload.UnstrucFlopsPerFace*apps.CyclesPerFlop + edgeOverheadCycles)
		signs := [4]float64{1, -1, 1, -1}
		for vi, v := range fc {
			acc := privAt(priv, v)
			for k := 0; k < 3; k++ {
				acc[k] += signs[vi] * c[k]
			}
		}
		a.mech.ComputePoll(p, len(edges)+fi)
	}
}

func privAt(priv map[int32]*[3]float64, node int32) *[3]float64 {
	if a := priv[node]; a != nil {
		return a
	}
	a := &[3]float64{}
	priv[node] = a
	return a
}

// flushPhase pushes private accumulations into the shared per-node
// accumulators: lock-protected writes for shared memory, handler
// messages for message passing.
func (a *App) flushPhase(p *machine.Proc, priv map[int32]*[3]float64) {
	pf := a.mech.UsesPrefetch()
	nodes := a.touched[p.ID]
	if a.mech.UsesMessages() {
		// Local flush: direct memory update; handlers that target the
		// same words run on this same thread, so no lock is needed.
		a.flush.Flush(p, func(v int32) {
			acc := priv[v]
			p.Compute(flushOverheadCycles)
			for k := 0; k < 3; k++ {
				ad := a.accumAddr[v] + mem.Addr(1+k)
				p.Poke(ad, p.Peek(ad)+acc[k])
			}
			*acc = [3]float64{}
		}, func(args []int64, vals []float64, v int32) ([]int64, []float64) {
			acc := priv[v]
			args, vals = append(args, int64(a.accumAddr[v])), append(vals, acc[:]...)
			*acc = [3]float64{}
			return args, vals
		})
		return
	}
	// Shared memory: per-node lock, colocated with the accumulator.
	for idx, v := range nodes {
		acc := priv[v]
		if acc == nil {
			continue
		}
		if pf && idx+2 < len(nodes) {
			// Write-prefetch the accumulator two nodes ahead (the
			// paper's two-edge-computations-ahead insertion).
			p.Prefetch(a.accumAddr[nodes[idx+2]], true)
		}
		l := a.locks[v]
		l.Acquire(p)
		for k := 0; k < 3; k++ {
			ad := a.accumAddr[v] + mem.Addr(1+k)
			p.Write(ad, p.Read(ad)+acc[k])
		}
		l.Release(p)
		p.Compute(flushOverheadCycles)
		*acc = [3]float64{}
	}
}

// updatePhase applies accumulated updates to owned nodes and clears the
// accumulators.
func (a *App) updatePhase(p *machine.Proc) {
	for _, v := range a.myNodes[p.ID] {
		p.Compute(updateFlopCycles)
		for k := 0; k < 3; k++ {
			sa := a.stateAddr[v] + mem.Addr(k)
			ad := a.accumAddr[v] + mem.Addr(1+k)
			acc := p.Read(ad)
			p.Write(sa, p.Read(sa)+0.1*acc)
			p.Write(ad, 0)
		}
	}
}

// Validate implements apps.App.
func (a *App) Validate() error {
	want := a.mesh.Reference(a.par.Iters)
	for i := range want {
		for k := 0; k < 3; k++ {
			got := a.m.Store.Peek(a.stateAddr[i] + mem.Addr(k))
			if w := want[i][k]; !apps.Close(got, w, 1e-6) {
				return fmt.Errorf("unstruc: state[%d][%d] = %v, want %v", i, k, got, w)
			}
		}
	}
	return nil
}
