package moldyn

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
	pairOverheadCycles   = 6
	updateCycles         = 18 // velocity + position integration per molecule
	rebuildCyclesPerMol  = 30 // cell-list binning share per owned molecule
	rebuildCyclesPerPair = 4  // pair-distance tests share
	posGhostPerMsg       = 2  // molecules per fine-grained position message
)

// App is one MOLDYN instance.
type App struct {
	par  workload.MoldynParams
	box  *workload.MoldynBox
	m    *machine.Machine
	mech apps.Mechanism

	posAddr   []mem.Addr        // 3 words (padded) per molecule, owner-homed
	forceAddr []mem.Addr        // [lock, f0][f1, f2] per molecule, owner-homed (MP only)
	vel       []workload.Point3 // owner-private velocities
	myMols    [][]int32

	// SM force-delta slots: deltaBase[mol] + 4*writer is a [lock, d0]
	// [d1, d2] block homed at mol's owner and written only by writer —
	// the paper's exclusive remote force-delta locations, with the lock
	// word colocated so acquisition piggybacks on write ownership.
	deltaBase []mem.Addr
	// writersOf[mol]: procs (other than the owner) accumulating into mol
	// under the current interaction list.
	writersOf [][]int32

	// Ghost area: per proc, 3 words per molecule (worst case), so slot
	// addresses survive interaction-list rebuilds.
	ghostBase []mem.Addr
	// posRead[pr][i]: where proc pr reads molecule i's position.
	posRead [][]mem.Addr

	// Interaction list state (rebuilt every ListEvery iterations by proc
	// 0 between barriers; identical and deterministic for all).
	pairs   [][2]int32
	myPairs [][]int32
	touched [][]int32
	// Message passing: position ghosts and force-delta flushes, both
	// planned from touched (a processor reads the position of exactly
	// the molecules it accumulates forces into).
	pos *apps.Ghosts
	acc *apps.Flush

	posH  am.HandlerID
	accH  am.HandlerID
	bulkH am.HandlerID

	bar psync.Barrier
}

// New generates the box.
func New(p workload.MoldynParams) *App {
	return &App{par: p, box: workload.NewMoldyn(p)}
}

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine, mech apps.Mechanism) {
	a.m, a.mech = m, mech
	n := a.par.Molecules
	procs := a.par.Procs

	a.posAddr = make([]mem.Addr, n)
	a.forceAddr = make([]mem.Addr, n)
	a.vel = append([]workload.Point3(nil), a.box.Vel...)
	a.myMols = make([][]int32, procs)
	for i := 0; i < n; i++ {
		pr := a.box.Part[i]
		a.myMols[pr] = append(a.myMols[pr], int32(i))
		a.posAddr[i] = m.Alloc(pr, 4)
		a.forceAddr[i] = m.Alloc(pr, 4)
		p := a.box.Pos[i]
		m.Store.Poke(a.posAddr[i], p.X)
		m.Store.Poke(a.posAddr[i]+1, p.Y)
		m.Store.Poke(a.posAddr[i]+2, p.Z)
	}

	a.posRead = make([][]mem.Addr, procs)
	if mech.UsesMessages() {
		a.ghostBase = make([]mem.Addr, procs)
		for pr := 0; pr < procs; pr++ {
			a.ghostBase[pr] = m.Alloc(pr, 3*n)
			a.posRead[pr] = make([]mem.Addr, n)
			for i := 0; i < n; i++ {
				if a.box.Part[i] == pr {
					a.posRead[pr][i] = a.posAddr[i]
				} else {
					a.posRead[pr][i] = a.ghostBase[pr] + mem.Addr(3*i)
				}
			}
		}
		a.registerHandlers()
	} else {
		for pr := 0; pr < procs; pr++ {
			a.posRead[pr] = a.posAddr
		}
		a.deltaBase = make([]mem.Addr, n)
		for i := 0; i < n; i++ {
			a.deltaBase[i] = m.Alloc(a.box.Part[i], 4*procs)
		}
	}
	a.bar = apps.NewBarrier(m, mech)
	a.rebuild() // initial interaction list
}

func (a *App) registerHandlers() {
	a.posH = a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		for k, mol := range args {
			base := a.ghostBase[c.Node] + mem.Addr(3*mol)
			for j := 0; j < 3; j++ {
				a.m.Store.Poke(base+mem.Addr(j), vals[3*k+j])
			}
		}
		a.pos.Arrived(c.Node)
	})
	a.accH = a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		a.applyDelta(int32(args[0]), vals)
		a.acc.Arrived(c.Node)
	})
	a.bulkH = a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		c.Overhead(am.GatherScatterCycles(len(vals)))
		for k, mol := range args {
			a.applyDelta(int32(mol), vals[3*k:3*k+3])
		}
		a.acc.Arrived(c.Node)
	})
}

func (a *App) applyDelta(mol int32, d []float64) {
	base := a.forceAddr[mol]
	for j := 0; j < 3; j++ {
		a.m.Store.Poke(base+mem.Addr(1+j), a.m.Store.Peek(base+mem.Addr(1+j))+d[j])
	}
}

// rebuild recomputes the interaction list and all derived communication
// structure from the current (authoritative) positions. Deterministic.
func (a *App) rebuild() {
	n := a.par.Molecules
	procs := a.par.Procs
	pos := make([]workload.Point3, n)
	for i := 0; i < n; i++ {
		pos[i] = workload.Point3{
			X: a.m.Store.Peek(a.posAddr[i]),
			Y: a.m.Store.Peek(a.posAddr[i] + 1),
			Z: a.m.Store.Peek(a.posAddr[i] + 2),
		}
	}
	a.pairs = workload.BuildPairs(pos, a.par.Box, a.par.Cutoff)
	a.myPairs = make([][]int32, procs)
	touchSet := make([]map[int32]bool, procs)
	for pr := range touchSet {
		touchSet[pr] = make(map[int32]bool)
	}
	counts := make([]int, procs)
	for e, pr := range a.pairs {
		// Boundary pairs go to whichever endpoint's group currently has
		// fewer pairs — deterministic greedy load balancing, standing in
		// for the paper's partitioner-balanced interaction lists.
		owner := a.box.Part[pr[0]]
		if o2 := a.box.Part[pr[1]]; o2 != owner && counts[o2] < counts[owner] {
			owner = o2
		}
		counts[owner]++
		a.myPairs[owner] = append(a.myPairs[owner], int32(e))
		touchSet[owner][pr[0]] = true
		touchSet[owner][pr[1]] = true
	}
	a.touched = make([][]int32, procs)
	for pr, set := range touchSet {
		for i := range set {
			a.touched[pr] = append(a.touched[pr], i)
		}
		sortI32(a.touched[pr])
	}
	if !a.mech.UsesMessages() {
		// Walk the sorted touched lists, not the touch sets: ascending pr
		// appends leave every writer list sorted by construction.
		a.writersOf = make([][]int32, n)
		for pr := range a.touched {
			for _, mol := range a.touched[pr] {
				if a.box.Part[mol] != pr {
					a.writersOf[mol] = append(a.writersOf[mol], int32(pr))
				}
			}
		}
		return
	}
	a.pos = apps.NewGhosts(a.touched, a.box.Part, posGhostPerMsg, a.mech, a.posH, nil)
	a.acc = apps.NewFlush(a.touched, a.box.Part, a.mech, a.accH, a.bulkH)
}

func sortI32(s []int32) {
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
}

// Body implements apps.App.
func (a *App) Body(p *machine.Proc) {
	if a.mech.UsesMessages() {
		p.SetRecvMode(a.mech.RecvMode())
	}
	priv := make(map[int32]*[3]float64)
	for it := 0; it < a.par.Iters; it++ {
		if it > 0 && it%a.par.ListEvery == 0 {
			// Positions are settled (post-barrier). Proc 0 rebuilds the
			// shared structure; everyone charges their binning share.
			p.Compute(rebuildCyclesPerMol * int64(len(a.myMols[p.ID])))
			if p.ID == 0 {
				a.rebuild()
			}
			a.bar.Wait(p)
			p.Compute(rebuildCyclesPerPair * int64(len(a.myPairs[p.ID])))
		}
		if a.mech.UsesMessages() {
			a.shipPositions(p)
		}
		a.forcePhase(p, priv)
		a.flushPhase(p, priv)
		a.bar.Wait(p)
		a.updatePhase(p, priv)
		a.bar.Wait(p)
	}
}

// shipPositions pushes owned positions to the processors that read
// them, posGhostPerMsg molecules per fine-grained message, and waits for
// this processor's own ghosts.
func (a *App) shipPositions(p *machine.Proc) {
	a.pos.Exchange(p, func(args []int64, vals []float64, _ *apps.Shipment, _ int, mols []int32) ([]int64, []float64) {
		for _, mol := range mols {
			args = append(args, int64(mol))
			for j := 0; j < 3; j++ {
				vals = append(vals, p.Peek(a.posAddr[mol]+mem.Addr(j)))
			}
		}
		return args, vals
	})
}

// forcePhase computes this processor's pair forces into private
// accumulators. Each pair's prefetches, position reads (the real
// location for SM, a local ghost for MP) and compute are one op run.
func (a *App) forcePhase(p *machine.Proc, priv map[int32]*[3]float64) {
	pf := a.mech.UsesPrefetch()
	mine := a.myPairs[p.ID]
	read := a.posRead[p.ID]
	for idx, e := range mine {
		pr := a.pairs[e]
		i, j := pr[0], pr[1]
		o := p.Ops()
		if pf && idx+2 < len(mine) {
			nxt := a.pairs[mine[idx+2]]
			// Read-prefetch upcoming remote coordinates (the paper
			// prefetches remote coordinates one iteration ahead; two
			// pairs ahead is the in-loop equivalent).
			o.Prefetch(read[nxt[0]], false)
			o.Prefetch(read[nxt[1]], false)
		}
		for _, mol := range pr {
			for k := mem.Addr(0); k < 3; k++ {
				o.Read(read[mol] + k)
			}
		}
		o.Compute(workload.MoldynFlopsPerInteraction*apps.CyclesPerFlop + pairOverheadCycles)
		s := p.Do(o)
		pi := workload.Point3{X: s[0], Y: s[1], Z: s[2]}
		pj := workload.Point3{X: s[3], Y: s[4], Z: s[5]}
		f := workload.PairForce(pi, pj, a.par.Cutoff)
		ai, aj := privAt(priv, i), privAt(priv, j)
		ai[0] += f.X
		ai[1] += f.Y
		ai[2] += f.Z
		aj[0] -= f.X
		aj[1] -= f.Y
		aj[2] -= f.Z
		a.mech.ComputePoll(p, idx)
	}
}

func privAt(priv map[int32]*[3]float64, mol int32) *[3]float64 {
	if a := priv[mol]; a != nil {
		return a
	}
	a := &[3]float64{}
	priv[mol] = a
	return a
}

func (a *App) flushPhase(p *machine.Proc, priv map[int32]*[3]float64) {
	pf := a.mech.UsesPrefetch()
	mols := a.touched[p.ID]
	if a.mech.UsesMessages() {
		// The owner's own contributions are consumed from priv at update.
		a.acc.Flush(p, nil, func(args []int64, vals []float64, mol int32) ([]int64, []float64) {
			acc := priv[mol]
			args, vals = append(args, int64(mol)), append(vals, acc[:]...)
			*acc = [3]float64{}
			return args, vals
		})
		return
	}
	for idx, mol := range mols {
		acc := priv[mol]
		if acc == nil {
			continue
		}
		if a.box.Part[mol] == p.ID {
			continue // owner's own contributions are consumed at update
		}
		slot := a.deltaBase[mol] + mem.Addr(4*p.ID)
		if pf && idx+2 < len(mols) {
			// Write-prefetch upcoming remote force-delta locations (the
			// paper prefetches them one iteration prior).
			nxt := mols[idx+2]
			if a.box.Part[nxt] != p.ID {
				ns := a.deltaBase[nxt] + mem.Addr(4*p.ID)
				p.Prefetch(ns, true)
				p.Prefetch(ns+2, true)
			}
		}
		// Lock word shares the slot's first line: acquisition rides the
		// write-ownership request (uncontended by construction).
		l := psync.LockAt(a.m, slot)
		l.Acquire(p)
		p.Write(slot+1, p.Peek(slot+1)+acc[0])
		p.Write(slot+2, p.Peek(slot+2)+acc[1])
		p.Write(slot+3, p.Peek(slot+3)+acc[2])
		l.Release(p)
		p.Compute(4)
		*acc = [3]float64{}
	}
}

func (a *App) updatePhase(p *machine.Proc, priv map[int32]*[3]float64) {
	const dt = 0.05
	for _, mol := range a.myMols[p.ID] {
		p.Compute(updateCycles)
		var f [3]float64
		if a.mech.UsesMessages() {
			if acc := priv[mol]; acc != nil {
				f = *acc
				*acc = [3]float64{}
			}
			fb := a.forceAddr[mol]
			for j := 0; j < 3; j++ {
				f[j] += p.Read(fb + mem.Addr(1+j))
				p.Write(fb+mem.Addr(1+j), 0)
			}
		} else {
			// Own contributions straight from the private accumulator.
			if acc := priv[mol]; acc != nil {
				f = *acc
				*acc = [3]float64{}
			}
			// Remote writers' exclusive delta slots: one ownership
			// acquisition per line reads and clears it.
			for _, w := range a.writersOf[mol] {
				slot := a.deltaBase[mol] + mem.Addr(4*w)
				p.Update(slot, func() {
					f[0] += a.m.Store.Peek(slot + 1)
					a.m.Store.Poke(slot+1, 0)
				})
				p.Update(slot+2, func() {
					f[1] += a.m.Store.Peek(slot + 2)
					f[2] += a.m.Store.Peek(slot + 3)
					a.m.Store.Poke(slot+2, 0)
					a.m.Store.Poke(slot+3, 0)
				})
				p.Compute(6)
			}
		}
		v := &a.vel[mol]
		v.X += dt * f[0]
		v.Y += dt * f[1]
		v.Z += dt * f[2]
		for j, d := range []float64{v.X, v.Y, v.Z} {
			pa := a.posAddr[mol] + mem.Addr(j)
			p.Write(pa, p.Read(pa)+dt*d)
		}
	}
}

// Validate implements apps.App.
func (a *App) Validate() error {
	wantPos, wantVel := a.box.Reference()
	for i := range wantPos {
		got := workload.Point3{
			X: a.m.Store.Peek(a.posAddr[i]),
			Y: a.m.Store.Peek(a.posAddr[i] + 1),
			Z: a.m.Store.Peek(a.posAddr[i] + 2),
		}
		if !close3(got, wantPos[i]) {
			return fmt.Errorf("moldyn: pos[%d] = %+v, want %+v", i, got, wantPos[i])
		}
		if !close3(a.vel[i], wantVel[i]) {
			return fmt.Errorf("moldyn: vel[%d] = %+v, want %+v", i, a.vel[i], wantVel[i])
		}
	}
	return nil
}

func close3(got, want workload.Point3) bool {
	return apps.Close(got.X, want.X, 1e-6) && apps.Close(got.Y, want.Y, 1e-6) && apps.Close(got.Z, want.Z, 1e-6)
}
