package unstruc

import (
	"fmt"
	"math"
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

	// MP machinery.
	sendState []([]sendPair) // per src: state ghosts to push
	expState  []int
	recvState []int
	expAccum  []int
	recvAccum []int
	stateH    am.HandlerID
	accumH    am.HandlerID
	bulkAccH  am.HandlerID

	smBar  *psync.SMBarrier
	msgBar *psync.MsgBarrier
}

type sendPair struct {
	dst   int
	nodes []int32
	base  mem.Addr
}

// New generates the mesh.
func New(p workload.UnstrucParams) *App {
	return &App{par: p, mesh: workload.NewUnstruc(p)}
}

// Name implements apps.App.
func (a *App) Name() string { return "unstruc" }

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
		a.msgBar = psync.NewMsgBarrier(m)
	} else {
		a.stateRead = make([][]mem.Addr, procs)
		for pr := 0; pr < procs; pr++ {
			a.stateRead[pr] = a.stateAddr // direct remote reads
		}
		a.smBar = psync.NewSMBarrier(m)
	}
}

// setupMP builds ghost shipping for node state and counts expected
// accumulate messages.
func (a *App) setupMP() {
	procs := a.par.Procs
	a.sendState = make([][]sendPair, procs)
	a.expState = make([]int, procs)
	a.recvState = make([]int, procs)
	a.expAccum = make([]int, procs)
	a.recvAccum = make([]int, procs)
	a.stateRead = make([][]mem.Addr, procs)

	// Which remote node states does each proc need? (endpoints of its
	// edges not owned by it.)
	need := make([]map[int32]bool, procs)
	for pr := range need {
		need[pr] = make(map[int32]bool)
		for _, e := range a.myEdges[pr] {
			ed := a.mesh.Edges[e]
			for _, v := range []int32{ed[0], ed[1]} {
				if a.mesh.Part[v] != pr {
					need[pr][v] = true
				}
			}
		}
		for _, f := range a.myFaces[pr] {
			for _, v := range a.mesh.Faces[f] {
				if a.mesh.Part[v] != pr {
					need[pr][v] = true
				}
			}
		}
	}
	for c := 0; c < procs; c++ {
		a.stateRead[c] = append([]mem.Addr(nil), a.stateAddr...)
		// Group in sorted-node order so every per-source ghost list comes
		// out ascending regardless of map iteration order.
		needed := make([]int32, 0, len(need[c]))
		for v := range need[c] {
			needed = append(needed, v)
		}
		sort.Slice(needed, func(x, y int) bool { return needed[x] < needed[y] })
		bySrc := make(map[int][]int32)
		for _, v := range needed {
			bySrc[a.mesh.Part[v]] = append(bySrc[a.mesh.Part[v]], v)
		}
		srcs := make([]int, 0, len(bySrc))
		for s := range bySrc {
			srcs = append(srcs, s)
		}
		sort.Ints(srcs)
		for _, s := range srcs {
			nodes := bySrc[s]
			base := a.m.Alloc(c, 3*len(nodes)+1)
			for k, v := range nodes {
				a.stateRead[c][v] = base + mem.Addr(3*k)
			}
			a.sendState[s] = append(a.sendState[s], sendPair{dst: c, nodes: nodes, base: base})
			if a.mech == apps.Bulk {
				a.expState[c]++
			} else {
				a.expState[c] += (len(nodes) + stateGhostPerMsg - 1) / stateGhostPerMsg
			}
		}
	}
	// Expected accumulate messages at each owner: one per (proc, node)
	// pair for fine-grained, one per (proc with any) for bulk.
	for pr := 0; pr < procs; pr++ {
		byDst := make(map[int]int)
		for _, v := range a.touched[pr] {
			if d := a.mesh.Part[v]; d != pr {
				byDst[d]++
			}
		}
		for d, cnt := range byDst {
			if a.mech == apps.Bulk {
				a.expAccum[d]++
			} else {
				a.expAccum[d] += cnt
			}
		}
	}

	a.stateH = a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		base := mem.Addr(args[0])
		for k, v := range vals {
			a.m.Store.Poke(base+mem.Addr(k), v)
		}
		a.recvState[c.Node]++
	})
	a.accumH = a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		base := mem.Addr(args[0])
		for k := 0; k < 3; k++ {
			a.m.Store.Poke(base+mem.Addr(1+k), a.m.Store.Peek(base+mem.Addr(1+k))+vals[k])
		}
		a.recvAccum[c.Node]++
	})
	a.bulkAccH = a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		// args[k] is the accum base of the k-th node; vals in triples.
		c.Overhead(am.GatherScatterCycles(len(vals)))
		for k, arg := range args {
			base := mem.Addr(arg)
			for j := 0; j < 3; j++ {
				a.m.Store.Poke(base+mem.Addr(1+j), a.m.Store.Peek(base+mem.Addr(1+j))+vals[3*k+j])
			}
		}
		a.recvAccum[c.Node]++
	})
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
		a.barrier(p)
		a.updatePhase(p)
		a.barrier(p)
	}
}

func (a *App) barrier(p *machine.Proc) {
	if a.msgBar != nil {
		a.msgBar.Wait(p)
	} else {
		a.smBar.Wait(p)
	}
}

// shipState pushes node states to consumers and waits for own ghosts.
func (a *App) shipState(p *machine.Proc) {
	sends := 0
	for _, sp := range a.sendState[p.ID] {
		if a.mech == apps.Bulk {
			buf := make([]float64, 0, 3*len(sp.nodes))
			for _, v := range sp.nodes {
				for k := 0; k < 3; k++ {
					buf = append(buf, p.Peek(a.stateAddr[v]+mem.Addr(k)))
				}
			}
			p.ChargeGather(len(buf))
			p.SendBulk(sp.dst, a.stateH, []int64{int64(sp.base)}, buf)
			continue
		}
		for off := 0; off < len(sp.nodes); off += stateGhostPerMsg {
			end := off + stateGhostPerMsg
			if end > len(sp.nodes) {
				end = len(sp.nodes)
			}
			vals := make([]float64, 0, 3*(end-off))
			for _, v := range sp.nodes[off:end] {
				for k := 0; k < 3; k++ {
					vals = append(vals, p.Peek(a.stateAddr[v]+mem.Addr(k)))
				}
			}
			p.Send(sp.dst, a.stateH, []int64{int64(sp.base) + int64(3*off)}, vals)
			sends++
			if a.mech == apps.MPPoll && sends%4 == 0 {
				p.Poll()
			}
		}
	}
	for a.recvState[p.ID] < a.expState[p.ID] {
		p.WaitAndHandle()
	}
	a.recvState[p.ID] = 0
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
	polls := 0
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
		if a.mech == apps.MPPoll {
			polls++
			if polls%8 == 0 {
				p.Poll()
			}
		}
	}
	// Face phase: each face reads its four corners and accumulates with
	// alternating sign.
	for _, f := range a.myFaces[p.ID] {
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
		if a.mech == apps.MPPoll {
			polls++
			if polls%8 == 0 {
				p.Poll()
			}
		}
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
		type bulkBuf struct {
			args []int64
			vals []float64
		}
		bulks := make(map[int]*bulkBuf)
		sends := 0
		for _, v := range nodes {
			acc := priv[v]
			if acc == nil {
				continue
			}
			owner := a.mesh.Part[v]
			if owner == p.ID {
				// Local flush: direct memory update; handlers that
				// target the same words run on this same thread, so no
				// lock is needed.
				p.Compute(flushOverheadCycles)
				for k := 0; k < 3; k++ {
					ad := a.accumAddr[v] + mem.Addr(1+k)
					p.Poke(ad, p.Peek(ad)+acc[k])
				}
			} else if a.mech == apps.Bulk {
				b := bulks[owner]
				if b == nil {
					b = &bulkBuf{}
					bulks[owner] = b
				}
				b.args = append(b.args, int64(a.accumAddr[v]))
				b.vals = append(b.vals, acc[0], acc[1], acc[2])
			} else {
				p.Send(owner, a.accumH, []int64{int64(a.accumAddr[v])}, acc[0:3][:])
				sends++
				if a.mech == apps.MPPoll && sends%4 == 0 {
					p.Poll()
				}
			}
			*acc = [3]float64{}
		}
		dsts := make([]int, 0, len(bulks))
		for d := range bulks {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			b := bulks[d]
			p.ChargeGather(len(b.vals))
			p.SendBulk(d, a.bulkAccH, b.args, b.vals)
		}
		for a.recvAccum[p.ID] < a.expAccum[p.ID] {
			p.WaitAndHandle()
		}
		a.recvAccum[p.ID] = 0
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
			w := want[i][k]
			scale := math.Abs(w)
			if scale < 1 {
				scale = 1
			}
			if math.Abs(got-w)/scale > 1e-6 {
				return fmt.Errorf("unstruc: state[%d][%d] = %v, want %v", i, k, got, w)
			}
		}
	}
	return nil
}
