package em3d

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/psync"
	"repro/internal/workload"
)

// edgeOverheadCycles is the loop/index overhead per edge computation:
// indirect addressing of the neighbor and coefficient, the accumulate,
// and loop control on a single-issue Sparcle.
const edgeOverheadCycles = 16

// ghostBlock is the fine-grained message payload size in values: the
// paper communicates ghost values five double-words at a time.
const ghostBlock = 5

// App is one EM3D instance.
type App struct {
	par  workload.EM3DParams
	g    *workload.EM3DGraph
	m    *machine.Machine
	mech apps.Mechanism
	// packed stores two values per cache line instead of one (the
	// value-layout ablation; see Setup).
	packed bool

	// Per-side value addresses (side 0 = E, side 1 = H).
	valAddr [2][]mem.Addr
	// resolved[ph][i] holds, for each local node i of the consuming side
	// of phase ph, the addresses its edge values are read from (real
	// locations for shared memory; local ghosts for message passing).
	resolved [2][][]mem.Addr

	// ghosts[ph] ships each phase's consumed values (message passing).
	ghosts [2]*apps.Ghosts

	bar psync.Barrier
}

// New generates the workload (deterministic in p.Seed).
func New(p workload.EM3DParams) *App {
	return &App{par: p, g: workload.NewEM3D(p)}
}

// Graph exposes the generated workload (for tests and reporting).
func (a *App) Graph() *workload.EM3DGraph { return a.g }

// SetPackedLayout switches to two values per cache line (halving read
// misses but overflowing the LimitLESS directory on nearly every value
// line). Call before Setup. The default padded layout is both faster
// under LimitLESS-5 and closer to the paper's volume ratio.
func (a *App) SetPackedLayout(packed bool) { a.packed = packed }

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine, mech apps.Mechanism) {
	a.m, a.mech = m, mech
	n := a.par.Nodes
	procs := a.par.Procs

	// Allocate per-owner value blocks, one value per cache line. Packing
	// two values per 16-byte line halves read misses but pushes value
	// lines to ~5 sharers, overflowing the LimitLESS directory on nearly
	// every line every phase; the padded layout is both faster under
	// LimitLESS-5 and closer to the paper's measured volume ratio (see
	// EXPERIMENTS.md). The paper's ~6x SM/MP volume is consistent with a
	// line per value.
	stride := mem.Addr(2)
	if a.packed {
		stride = 1
	}
	for side := 0; side < 2; side++ {
		a.valAddr[side] = make([]mem.Addr, n)
		for pr := 0; pr < procs; pr++ {
			lo, hi := apps.BlockRange(n, procs, pr)
			if hi == lo {
				continue
			}
			base := m.Alloc(pr, int(stride)*(hi-lo))
			for i := lo; i < hi; i++ {
				a.valAddr[side][i] = base + stride*mem.Addr(i-lo)
			}
		}
	}
	for i := 0; i < n; i++ {
		m.Store.Poke(a.valAddr[0][i], a.g.EInit[i])
		m.Store.Poke(a.valAddr[1][i], a.g.HInit[i])
	}

	if mech.UsesMessages() {
		a.setupGhosts()
	} else {
		a.resolveDirect()
	}
	a.bar = apps.NewBarrier(m, mech)
}

// resolveDirect points every edge read at the real remote location.
func (a *App) resolveDirect() {
	for ph := 0; ph < 2; ph++ {
		adj := a.adj(ph)
		src := 1 - ph // values consumed come from the other side
		a.resolved[ph] = make([][]mem.Addr, len(adj))
		for i, nbrs := range adj {
			row := make([]mem.Addr, len(nbrs))
			for d, j := range nbrs {
				row[d] = a.valAddr[src][j]
			}
			a.resolved[ph][i] = row
		}
	}
}

// adj returns the consuming side's adjacency for a phase: phase 0 updates
// E nodes from H values, phase 1 updates H nodes from E values.
func (a *App) adj(ph int) [][]int32 {
	if ph == 0 {
		return a.g.EAdj
	}
	return a.g.HAdj
}

func (a *App) coef(ph int) [][]float64 {
	if ph == 0 {
		return a.g.ECoef
	}
	return a.g.HCoef
}

// setupGhosts builds the ghost-node machinery: for each phase, each
// producer ships each consumer the deduplicated set of values the
// consumer's edges need, into a contiguous ghost block at the consumer.
func (a *App) setupGhosts() {
	procs := a.par.Procs
	// One handler serves both phases: args = [ghost base addr, phase].
	ghostH := a.m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		base := mem.Addr(args[0])
		for k, v := range vals {
			a.m.Store.Poke(base+mem.Addr(k), v)
		}
		a.ghosts[args[1]].Arrived(c.Node)
	})
	for ph := 0; ph < 2; ph++ {
		adj := a.adj(ph)
		srcSide := 1 - ph
		need := make([][]int32, procs) // remote values each consumer reads
		for c := range need {
			lo, hi := apps.BlockRange(a.par.Nodes, procs, c)
			for _, nbrs := range adj[lo:hi] {
				for _, j := range nbrs {
					if int(a.g.Owner[j]) != c {
						need[c] = append(need[c], j)
					}
				}
			}
		}
		ghostAddr := make([]map[int32]mem.Addr, procs) // per consumer
		a.ghosts[ph] = apps.NewGhosts(need, a.g.Owner, ghostBlock, a.mech, ghostH, func(s apps.Shipment) mem.Addr {
			base := a.m.Alloc(s.To, len(s.Items))
			if ghostAddr[s.To] == nil {
				ghostAddr[s.To] = make(map[int32]mem.Addr)
			}
			for k, j := range s.Items {
				ghostAddr[s.To][j] = base + mem.Addr(k)
			}
			return base
		})
		// Resolve edge reads to local values or ghosts.
		a.resolved[ph] = make([][]mem.Addr, len(adj))
		for i, nbrs := range adj {
			owner := int(a.g.Owner[i])
			row := make([]mem.Addr, len(nbrs))
			for d, j := range nbrs {
				if int(a.g.Owner[j]) == owner {
					row[d] = a.valAddr[srcSide][j]
				} else {
					row[d] = ghostAddr[owner][j]
				}
			}
			a.resolved[ph][i] = row
		}
	}
}

// Body implements apps.App.
func (a *App) Body(p *machine.Proc) {
	if a.mech.UsesMessages() {
		p.SetRecvMode(a.mech.RecvMode())
	}
	for it := 0; it < a.par.Iters; it++ {
		for ph := 0; ph < 2; ph++ {
			if a.mech.UsesMessages() {
				a.commStep(p, ph)
			}
			a.computePhase(p, ph)
			a.bar.Wait(p)
		}
	}
}

// commStep pushes this processor's produced values to its consumers,
// ghostBlock values per fine-grained message, and waits for its own
// ghosts to arrive.
func (a *App) commStep(p *machine.Proc, ph int) {
	srcSide := 1 - ph
	a.ghosts[ph].Exchange(p, func(args []int64, vals []float64, s *apps.Shipment, off int, nodes []int32) ([]int64, []float64) {
		for _, j := range nodes {
			vals = append(vals, p.Peek(a.valAddr[srcSide][j]))
		}
		return append(args, int64(s.Base)+int64(off), int64(ph)), vals
	})
}

// computePhase updates this processor's nodes of the phase's side. Each
// node's reads, prefetches and edge computes are one op run.
func (a *App) computePhase(p *machine.Proc, ph int) {
	lo, hi := apps.BlockRange(a.par.Nodes, a.par.Procs, p.ID)
	coef := a.coef(ph)
	pf := a.mech.UsesPrefetch()
	for i := lo; i < hi; i++ {
		own := a.valAddr[ph][i]
		row := a.resolved[ph][i]
		o := p.Ops()
		if pf {
			// Write-prefetch the node being updated (overlap the
			// ownership acquisition with the edge computations).
			o.Prefetch(own, true)
			if len(row) > 0 {
				o.Prefetch(row[0], false)
			}
			if len(row) > 1 {
				o.Prefetch(row[1], false)
			}
		}
		o.Read(own)
		for d := range row {
			if pf && d+2 < len(row) {
				o.Prefetch(row[d+2], false)
			}
			o.Read(row[d])
			o.Compute(2*apps.CyclesPerFlop + edgeOverheadCycles)
		}
		vals := p.Do(o)
		acc := vals[0]
		for d, v := range vals[1:] {
			acc -= coef[i][d] * v
		}
		p.Write(own, acc)
	}
}

// Validate implements apps.App.
func (a *App) Validate() error {
	e, h := a.g.Reference(a.par.Iters)
	for i := range e {
		if got := a.m.Store.Peek(a.valAddr[0][i]); !apps.Close(got, e[i], 1e-9) {
			return fmt.Errorf("em3d: E[%d] = %v, want %v", i, got, e[i])
		}
		if got := a.m.Store.Peek(a.valAddr[1][i]); !apps.Close(got, h[i], 1e-9) {
			return fmt.Errorf("em3d: H[%d] = %v, want %v", i, got, h[i])
		}
	}
	return nil
}
