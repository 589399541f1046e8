package iccg

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
	rowOverheadCycles  = 8  // worklist pop, divide, bookkeeping per row
	edgeSendOverhead   = 2  // index arithmetic per outgoing edge
	bulkFlushThreshold = 16 // edges buffered per destination before DMA
)

// App is one ICCG instance.
type App struct {
	par  workload.ICCGParams
	sys  *workload.ICCGSystem
	m    *machine.Machine
	mech apps.Mechanism

	// rowAddr[i]: line-aligned [acc|x, counter] pair (producer-computes
	// colocation). For MP these live at the owner and are only touched
	// locally (Poke/Peek); for SM they are the coherent rendezvous.
	rowAddr []mem.Addr
	myRows  []int // rows per proc
	sources [][]int32

	// MP state (Go-level, owner-local).
	need        []int32 // remaining incoming edges per row
	ready       [][]int32
	donePerProc []int
	edgeH       am.HandlerID
	bulkH       am.HandlerID

	bar psync.Barrier
}

// New generates the system.
func New(p workload.ICCGParams) *App {
	return &App{par: p, sys: workload.NewICCG(p)}
}

// Name implements apps.App.
func (a *App) Name() string { return "iccg" }

// Setup implements apps.App.
func (a *App) Setup(m *machine.Machine, mech apps.Mechanism) {
	a.m, a.mech = m, mech
	n := a.par.Rows
	procs := a.par.Procs

	a.rowAddr = make([]mem.Addr, n)
	a.myRows = make([]int, procs)
	a.sources = make([][]int32, procs)
	for i := 0; i < n; i++ {
		pr := a.sys.Part[i]
		a.myRows[pr]++
		a.rowAddr[i] = m.Alloc(pr, 2) // one line: [acc, counter]
		m.Store.Poke(a.rowAddr[i], a.sys.B[i])
		m.Store.Poke(a.rowAddr[i]+1, float64(len(a.sys.Preds[i])))
		if len(a.sys.Preds[i]) == 0 {
			a.sources[pr] = append(a.sources[pr], int32(i))
		}
	}

	if mech.UsesMessages() {
		a.need = make([]int32, n)
		for i := range a.need {
			a.need[i] = int32(len(a.sys.Preds[i]))
		}
		a.ready = make([][]int32, procs)
		a.donePerProc = make([]int, procs)
		for pr := range a.sources {
			a.ready[pr] = append([]int32(nil), a.sources[pr]...)
		}
		a.edgeH = m.AM.Register(a.handleEdge)
		a.bulkH = m.AM.Register(a.handleBulk)
	}
	a.bar = apps.NewBarrier(m, mech)
}

// succWeight returns L[succ][row]: the weight of DAG edge row -> succ.
func (a *App) succWeight(row, succ int32) float64 {
	preds := a.sys.Preds[succ]
	for k, j := range preds {
		if j == row {
			return a.sys.PredsW[succ][k]
		}
	}
	panic("iccg: missing edge weight")
}

// Body implements apps.App.
func (a *App) Body(p *machine.Proc) {
	if a.mech.UsesMessages() {
		p.SetRecvMode(a.mech.RecvMode())
		a.bodyMP(p)
	} else {
		a.bodySM(p)
	}
}

// ---------------------------------------------------------------------------
// Message-passing dataflow
// ---------------------------------------------------------------------------

// handleEdge applies one incoming edge value: args=[row], vals=[w*x].
func (a *App) handleEdge(c *am.Ctx, args []int64, vals []float64) {
	a.applyEdge(c.Node, int32(args[0]), vals[0])
}

// handleBulk applies a buffered batch: args=rows, vals=contributions.
func (a *App) handleBulk(c *am.Ctx, args []int64, vals []float64) {
	c.Overhead(am.GatherScatterCycles(len(vals)))
	for k, r := range args {
		a.applyEdge(c.Node, int32(r), vals[k])
	}
}

func (a *App) applyEdge(node int, row int32, contrib float64) {
	ra := a.rowAddr[row]
	a.m.Store.Poke(ra, a.m.Store.Peek(ra)-contrib)
	a.need[row]--
	if a.need[row] == 0 {
		a.ready[node] = append(a.ready[node], row)
	}
}

type bulkBuf struct {
	rows []int64
	vals []float64
}

func (a *App) bodyMP(p *machine.Proc) {
	me := p.ID
	total := a.myRows[me]
	done := 0
	var bulks map[int]*bulkBuf
	if a.mech == apps.Bulk {
		bulks = make(map[int]*bulkBuf)
	}
	for done < total {
		if len(a.ready[me]) == 0 {
			if a.mech == apps.Bulk {
				a.flushBulks(p, bulks, 0) // avoid deadlock: ship partial buffers
			}
			p.WaitAndHandle()
			continue
		}
		row := a.ready[me][0]
		a.ready[me] = a.ready[me][1:]
		a.processRowMP(p, row, bulks)
		done++
		if a.mech == apps.MPPoll {
			p.Poll()
		}
	}
	if a.mech == apps.Bulk {
		a.flushBulks(p, bulks, 0)
	}
	a.bar.Wait(p)
}

// processRowMP finalizes row (divide) and propagates its value along
// outgoing edges.
func (a *App) processRowMP(p *machine.Proc, row int32, bulks map[int]*bulkBuf) {
	ra := a.rowAddr[row]
	x := p.Peek(ra) / a.sys.Diag[row]
	p.Poke(ra, x)
	p.Compute(rowOverheadCycles)
	for _, succ := range a.sys.Succs[row] {
		w := a.succWeight(row, succ)
		contrib := w * x
		owner := a.sys.Part[succ]
		p.Compute(apps.CyclesPerFlop + edgeSendOverhead)
		if owner == p.ID {
			a.applyEdge(p.ID, succ, contrib)
			p.Compute(apps.CyclesPerFlop)
			continue
		}
		if a.mech == apps.Bulk {
			b := bulks[owner]
			if b == nil {
				b = &bulkBuf{}
				bulks[owner] = b
			}
			b.rows = append(b.rows, int64(succ))
			b.vals = append(b.vals, contrib)
			if len(b.rows) >= bulkFlushThreshold {
				a.flushBulks(p, map[int]*bulkBuf{owner: b}, 0)
				delete(bulks, owner)
			}
			continue
		}
		p.Send(owner, a.edgeH, []int64{int64(succ)}, []float64{contrib})
	}
}

// flushBulks ships every buffer with more than min entries.
func (a *App) flushBulks(p *machine.Proc, bulks map[int]*bulkBuf, min int) {
	dsts := make([]int, 0, len(bulks))
	for d := range bulks {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	for _, d := range dsts {
		b := bulks[d]
		if len(b.rows) <= min {
			continue
		}
		p.ChargeGather(len(b.vals))
		p.SendBulk(d, a.bulkH, b.rows, b.vals)
		b.rows, b.vals = nil, nil
	}
}

// ---------------------------------------------------------------------------
// Shared-memory producer-computes
// ---------------------------------------------------------------------------

func (a *App) bodySM(p *machine.Proc) {
	me := p.ID
	pf := a.mech.UsesPrefetch()
	// Rows this processor owns, in index order; each is finalized by its
	// owner once its presence counter (colocated with the accumulator)
	// reaches zero. Producers decrement counters via remote
	// read-modify-writes; owners discover completion by scanning their
	// pending rows’ counters — unchanged counters stay cached (hits),
	// only freshly-written ones fetch.
	remaining := make([]int32, 0, a.myRows[me])
	for i := 0; i < a.par.Rows; i++ {
		if a.sys.Part[i] == me {
			remaining = append(remaining, int32(i))
		}
	}
	backoff := int64(20)
	for len(remaining) > 0 {
		progress := false
		out := remaining[:0]
		for _, row := range remaining {
			// Counter poll: same line as the value.
			if p.ReadSync(a.rowAddr[row]+1) != 0 {
				out = append(out, row)
				continue
			}
			progress = true
			a.processRowSM(p, row, pf)
		}
		remaining = out
		if !progress {
			p.SpinCycles(backoff)
			if backoff < 320 {
				backoff *= 2
			}
		} else {
			backoff = 20
		}
	}
	a.bar.Wait(p)
}

// processRowSM finalizes a completed row and propagates its value along
// outgoing edges with producer-computes remote updates.
func (a *App) processRowSM(p *machine.Proc, row int32, pf bool) {
	ra := a.rowAddr[row]
	// The counter read cached the line; finalize in place.
	x := p.Read(ra) / a.sys.Diag[row]
	p.Write(ra, x)
	p.Compute(rowOverheadCycles)
	succs := a.sys.Succs[row]
	for si, succ := range succs {
		if pf && si+2 < len(succs) {
			// Two nodes ahead, as the paper inserts them. Most of these
			// are useless when the target is local — the effect the
			// paper reports slowing ICCG down.
			p.Prefetch(a.rowAddr[succs[si+2]], true)
		}
		w := a.succWeight(row, succ)
		contrib := w * x
		sa := a.rowAddr[succ]
		// One ownership acquisition updates value and counter (they
		// share the line) — the paper’s piggybacked lock.
		p.Update(sa, func() {
			a.m.Store.Poke(sa, a.m.Store.Peek(sa)-contrib)
			a.m.Store.Poke(sa+1, a.m.Store.Peek(sa+1)-1)
		})
		p.Compute(apps.CyclesPerFlop*workload.ICCGFlopsPerEdge + edgeSendOverhead)
	}
}

// Validate implements apps.App.
func (a *App) Validate() error {
	want := a.sys.Reference()
	for i := range want {
		if got := a.m.Store.Peek(a.rowAddr[i]); !apps.Close(got, want[i], 1e-9) {
			return fmt.Errorf("iccg: x[%d] = %v, want %v", i, got, want[i])
		}
	}
	return nil
}
