package psync

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Barrier holds each processor in Wait until every processor has
// arrived. SMBarrier, SMCentralBarrier and MsgBarrier implement it.
type Barrier interface {
	Wait(p *machine.Proc)
}

// traceEvent records a synchronization event when tracing is enabled.
func traceEvent(m *machine.Machine, p *machine.Proc, kind obs.EventKind, a, b int64) {
	if m.Trace != nil {
		m.Trace.Add(obs.Event{At: p.Now(), Node: p.ID, Kind: kind, A: a, B: b})
	}
}

// critBarrier records a barrier arrive→release causal edge. The wait
// itself is already charged to synchronization (with any in-network
// portion reattributed by the miss/message wait hooks); the edge names
// the dependency for the timeline lane and top-edge summary.
func critBarrier(m *machine.Machine, p *machine.Proc, start sim.Time) {
	if m.Crit != nil {
		m.Crit.Edge(obs.CritEdge{Kind: obs.EdgeBarrier, Src: p.ID, Dst: p.ID, Start: start, End: p.Now()})
	}
}

// ---------------------------------------------------------------------------
// Shared-memory barrier
// ---------------------------------------------------------------------------

// SMBarrier is a software combining-tree barrier in shared memory (the
// standard scalable barrier for invalidation-protocol machines): arrivals
// combine up a 4-ary tree of counters distributed across nodes, and the
// release flips per-subtree generation flags on the way down, so both
// fan-in and fan-out are parallel across the tree rather than serialized
// on one hot line.
type SMBarrier struct {
	m *machine.Machine
	n int

	// Tree node i has counter counters[i] (own line) and generation flag
	// gens[i] (own line). Processor p arrives at leaf group p/arity.
	counters []mem.Addr
	gens     []mem.Addr
	parent   []int
	expect   []int // arrivals expected at each tree node
}

const barrierArity = 4

// A barrier waiter polls its generation flag with backoffs of
// flagBackoff cycles, doubling up to flagBackoffMax.
const (
	flagBackoff    = 10
	flagBackoffMax = 160
)

// NewSMBarrier allocates a combining-tree barrier for all processors.
func NewSMBarrier(m *machine.Machine) *SMBarrier {
	b := &SMBarrier{m: m, n: m.Cfg.Nodes()}
	// Build the tree bottom-up: level 0 groups of barrierArity procs.
	groups := (b.n + barrierArity - 1) / barrierArity
	level := make([]int, 0, groups)
	for g := 0; g < groups; g++ {
		id := b.addNode(g*barrierArity, minInt(barrierArity, b.n-g*barrierArity))
		level = append(level, id)
	}
	for len(level) > 1 {
		var next []int
		for off := 0; off < len(level); off += barrierArity {
			end := minInt(off+barrierArity, len(level))
			// Parent homed at the first child's home node.
			pid := b.addNode(b.homeOf(level[off]), end-off)
			for _, c := range level[off:end] {
				b.parent[c] = pid
			}
			next = append(next, pid)
		}
		level = next
	}
	b.parent[level[0]] = -1
	return b
}

// addNode allocates a tree node's counter and flag homed at node home,
// expecting expect arrivals, and returns its index.
func (b *SMBarrier) addNode(home, expect int) int {
	home = home % b.n
	b.counters = append(b.counters, b.m.Alloc(home, 2))
	b.gens = append(b.gens, b.m.Alloc(home, 2))
	b.parent = append(b.parent, -1)
	b.expect = append(b.expect, expect)
	return len(b.counters) - 1
}

func (b *SMBarrier) homeOf(node int) int {
	return b.m.Store.Home(b.counters[node])
}

func minInt(a, c int) int {
	if a < c {
		return a
	}
	return c
}

// Wait blocks p until all processors have arrived.
func (b *SMBarrier) Wait(p *machine.Proc) {
	p.Ev.BarrierArrivals++
	arriveAt := p.Now()
	traceEvent(b.m, p, obs.KBarrier, 0, 0)
	// Sense value for this episode, read before arriving. This must be a
	// real load, not a backdoor peek: under release consistency the
	// previous episode's releaser may still have its own gen-flip store
	// in the write buffer, and only the load path forwards it.
	myGen := p.ReadSync(b.gens[0])
	b.arrive(p, p.ID/barrierArity)
	p.SpinWhileEqual(b.gens[0], myGen, flagBackoff, flagBackoffMax)
	critBarrier(b.m, p, arriveAt)
}

// arrive combines an arrival into tree node id, recursing upward when the
// subtree is complete; the processor completing the root performs the
// release (one write that invalidates every spinner's cached flag).
func (b *SMBarrier) arrive(p *machine.Proc, id int) {
	last := p.RMWSync(b.counters[id], func(v float64) float64 { return v + 1 })
	if int(last) < b.expect[id] {
		return
	}
	p.WriteSync(b.counters[id], 0)
	if b.parent[id] >= 0 {
		b.arrive(p, b.parent[id])
		return
	}
	// Release semantics: the counter resets must be visible before the
	// generation flip frees the spinners (matters under RC).
	p.Fence()
	p.WriteSync(b.gens[0], p.Peek(b.gens[0])+1)
}

// ---------------------------------------------------------------------------
// Centralized shared-memory barrier (ablation baseline)
// ---------------------------------------------------------------------------

// SMCentralBarrier is the naive single-counter barrier: every arrival is
// an atomic increment of one hot line and every waiter spins on one
// generation flag. It exists as the ablation baseline for the combining
// tree (see the ablation benchmarks): on 32 processors its arrivals
// serialize through one home node.
type SMCentralBarrier struct {
	m       *machine.Machine
	n       int
	counter mem.Addr
	gen     mem.Addr
}

// NewSMCentralBarrier allocates the barrier, homed at node 0.
func NewSMCentralBarrier(m *machine.Machine) *SMCentralBarrier {
	return &SMCentralBarrier{
		m: m, n: m.Cfg.Nodes(),
		counter: m.Alloc(0, 2),
		gen:     m.Alloc(0, 2),
	}
}

// Wait blocks p until all processors have arrived.
func (b *SMCentralBarrier) Wait(p *machine.Proc) {
	p.Ev.BarrierArrivals++
	arriveAt := p.Now()
	myGen := p.ReadSync(b.gen) // forwarding load; see SMBarrier.Wait

	last := p.RMWSync(b.counter, func(v float64) float64 { return v + 1 })
	if int(last) == b.n {
		p.WriteSync(b.counter, 0)
		p.Fence() // release semantics under RC
		p.WriteSync(b.gen, myGen+1)
		critBarrier(b.m, p, arriveAt)
		return
	}
	p.SpinWhileEqual(b.gen, myGen, flagBackoff, flagBackoffMax)
	critBarrier(b.m, p, arriveAt)
}

// ---------------------------------------------------------------------------
// Message-passing tree barrier
// ---------------------------------------------------------------------------

// MsgBarrier is a binary-tree barrier over active messages: arrivals fan
// in to the root, the release fans back out, handler-forwarded. Build it
// before Machine.Run (it registers handlers).
type MsgBarrier struct {
	m        *machine.Machine
	n        int
	arriveH  am.HandlerID
	releaseH am.HandlerID
	arrived  []int // pending child arrivals per node
	released []int // pending releases per node
}

// NewMsgBarrier registers the barrier's handlers on m.
func NewMsgBarrier(m *machine.Machine) *MsgBarrier {
	b := &MsgBarrier{m: m, n: m.Cfg.Nodes()}
	b.arrived = make([]int, b.n)
	b.released = make([]int, b.n)
	b.arriveH = m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		b.arrived[c.Node]++
	})
	b.releaseH = m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		b.released[c.Node]++
		// Forward the release down the tree from within the handler.
		for _, ch := range b.children(c.Node) {
			c.Reply(ch, b.releaseH, nil, nil)
		}
	})
	return b
}

func (b *MsgBarrier) children(id int) []int {
	var cs []int
	if l := 2*id + 1; l < b.n {
		cs = append(cs, l)
	}
	if r := 2*id + 2; r < b.n {
		cs = append(cs, r)
	}
	return cs
}

// Wait blocks p until all processors have arrived.
func (b *MsgBarrier) Wait(p *machine.Proc) {
	p.Ev.BarrierArrivals++
	arriveAt := p.Now()
	id := p.ID
	need := len(b.children(id))
	for b.arrived[id] < need {
		p.WaitAndHandle()
	}
	b.arrived[id] -= need
	if id == 0 {
		for _, ch := range b.children(0) {
			p.Send(ch, b.releaseH, nil, nil)
		}
		critBarrier(b.m, p, arriveAt)
		return
	}
	p.Send((id-1)/2, b.arriveH, nil, nil)
	for b.released[id] == 0 {
		p.WaitAndHandle()
	}
	b.released[id]--
	critBarrier(b.m, p, arriveAt)
}

// ---------------------------------------------------------------------------
// Shared-memory spin lock
// ---------------------------------------------------------------------------

// SpinLock is a test-and-set spin lock with bounded exponential backoff.
// The lock word may be colocated with protected data (LockAt), modeling
// Alewife's piggybacking of lock acquisition on the data's
// write-ownership request.
type SpinLock struct {
	m    *machine.Machine
	addr mem.Addr
}

// newSpinLock allocates a lock in its own cache line homed at node.
func newSpinLock(m *machine.Machine, node int) *SpinLock {
	return &SpinLock{m: m, addr: m.Alloc(node, 2)}
}

// LockAt wraps an existing shared word as a lock (colocate it with the
// data it protects to share ownership requests).
func LockAt(m *machine.Machine, addr mem.Addr) *SpinLock {
	return &SpinLock{m: m, addr: addr}
}

// Acquire spins until the lock is held by p.
func (l *SpinLock) Acquire(p *machine.Proc) {
	backoff := int64(20)
	for {
		got := false
		p.RMWSync(l.addr, func(v float64) float64 {
			if v == 0 {
				got = true
				return 1
			}
			return v
		})
		if got {
			p.Ev.LockAcquires++
			traceEvent(l.m, p, obs.KLock, int64(l.addr), 1)
			return
		}
		p.Ev.LockSpins++
		p.SpinCycles(backoff)
		if backoff < 320 {
			backoff *= 2
		}
	}
}

// Release unlocks; only the holder may call it. Under release
// consistency the fence orders the critical section's buffered stores
// before the lock becomes visible as free.
func (l *SpinLock) Release(p *machine.Proc) {
	p.Fence()
	if p.Peek(l.addr) != 1 {
		panic(fmt.Sprintf("psync: Release of unheld lock at %d", l.addr))
	}
	traceEvent(l.m, p, obs.KLock, int64(l.addr), 0)
	p.WriteSync(l.addr, 0)
}
