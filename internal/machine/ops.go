package machine

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// An op run is a straight-line list of reads, prefetches and computes
// whose addresses and cycle counts do not depend on the values it reads.
// On the thread, each such op is at least one Sleep, that is two
// coroutine switches. Do runs the list engine-side instead, as the steps
// of one sim.Thread.Spin, and each step does at its wake what the thread
// would have done: a read's load reads the word, a prefetch's issue ends
// and it is sent to the memory system, a compute's chunk ends; then the
// next op's part before its sleep is made: the read's hit probe
// (mem.System.ReadHit), the prefetch's issue charge, or the compute's
// dilation, interrupt check and chunk charge. So every bucket charge and
// every event is the same as on the thread, at the same point of the
// same dispatch. The thread resumes only for a read that is not a plain
// hit, which it makes with Read, for a compute chunk boundary that finds
// a message pending under interrupt reception, where it makes the rest
// of that compute, and at the end of the run.

// opKind says what one op of a list does.
type opKind uint8

const (
	opRead opKind = iota
	opPrefetch
	opCompute
)

// op is one entry of an Ops list. It packs in 16 bytes: a list is per
// processor, and a 512-node machine grows 512 of them.
type op struct {
	kind  opKind
	write bool  // a prefetch's write flag
	arg   int64 // a read's or prefetch's address, or a compute's cycles
}

// addr returns a read's or prefetch's address.
func (x *op) addr() mem.Addr { return mem.Addr(x.arg) }

// Ops is a processor's op list for Do, with the state of its run. Get it
// with Proc.Ops; it is allocated at the processor's first use, and its
// buffers are reused by every later list.
type Ops struct {
	p    *Proc
	list []op
	vals []float64 // the values read so far, in order

	i      int                     // list[i] is the op in progress
	left   int64                   // cycles of the compute in progress still to charge
	busy   bool                    // a run of the list is in flight
	doStep func() (sim.Time, bool) // o.step, bound once
}

// Ops returns p's op list, emptied, for the caller to fill and hand to
// Do.
func (p *Proc) Ops() *Ops {
	o := p.ops
	if o == nil {
		o = &Ops{p: p}
		o.doStep = o.step
		p.ops = o
	}
	o.checkIdle()
	o.list = o.list[:0]
	return o
}

// checkIdle refuses to touch a list while its run is in flight.
func (o *Ops) checkIdle() {
	if o.busy {
		panic("machine: a run of processor ops is already in flight")
	}
}

// Read appends a Read of a.
func (o *Ops) Read(a mem.Addr) { o.list = append(o.list, op{kind: opRead, arg: int64(a)}) }

// Prefetch appends a Prefetch of a.
func (o *Ops) Prefetch(a mem.Addr, write bool) {
	o.list = append(o.list, op{kind: opPrefetch, write: write, arg: int64(a)})
}

// Compute appends a Compute of cycles.
func (o *Ops) Compute(cycles int64) {
	checkCompute(cycles)
	o.list = append(o.list, op{kind: opCompute, arg: cycles})
}

// Do makes the ops of o, which must be p's list, in order: exactly the
// Read, Prefetch and Compute calls the list names. It returns the values
// read, in order, in a slice that the next Do overwrites. The thread
// resumes only for a read that is not a plain hit, for a compute whose
// interrupt check finds a message pending, and at the end of the run.
func (p *Proc) Do(o *Ops) []float64 {
	if o != p.ops {
		panic("machine: Do of another processor's ops")
	}
	o.checkIdle()
	o.busy = true
	o.vals, o.i = o.vals[:0], 0
	for {
		if d, sleep := o.begin(); sleep {
			p.th.Spin(d, o.doStep)
		}
		if o.i == len(o.list) {
			break
		}
		// list[i] needs the thread.
		if x := &o.list[o.i]; x.kind == opRead {
			o.vals = append(o.vals, p.Read(x.addr()))
		} else {
			p.computeChunks(o.left)
		}
		o.i++
	}
	o.busy = false
	return o.vals
}

// begin makes the part of list[i] and the ops after it that comes
// before a sleep, and returns that sleep. It returns false at the end of
// the list, or when list[i] needs the thread: a read that is not a plain
// hit, or a compute interrupted before its first chunk.
func (o *Ops) begin() (sim.Time, bool) {
	p := o.p
	for ; o.i < len(o.list); o.i++ {
		x := &o.list[o.i]
		switch x.kind {
		case opRead:
			return p.M.Mem.ReadHit(p.ID, x.addr(), &p.BD)
		case opPrefetch:
			return p.chargeIssue(), true
		}
		o.left = x.arg
		if d := p.dilation(); d > 0 {
			return d, true
		}
		if d, sleep, done := o.nextChunk(); !done {
			return d, sleep
		}
	}
	return 0, false
}

// step is Do's Spin step, run at the end of each sleep: it finishes
// list[i]'s sleep as the thread would, then begins the next sleep.
func (o *Ops) step() (sim.Time, bool) {
	p := o.p
	switch x := &o.list[o.i]; x.kind {
	case opRead:
		// The hit ended: the load reads the word now.
		o.vals = append(o.vals, p.M.Store.Peek(x.addr()))
	case opPrefetch:
		p.M.Mem.Prefetch(p.ID, x.addr(), x.write)
	case opCompute:
		// The dilation or a chunk ended.
		if d, sleep, done := o.nextChunk(); !done {
			return d, sleep
		}
	}
	o.i++
	return o.begin()
}

// nextChunk continues the compute in progress where computeChunks would
// check for interrupts: it charges the next chunk and returns its sleep,
// reports done once no cycles are left, or returns neither when a
// message is pending under interrupt reception, so that the thread
// makes the rest of the compute with computeChunks.
func (o *Ops) nextChunk() (d sim.Time, sleep, done bool) {
	p := o.p
	if p.mode == RecvInterrupt && p.M.AM.HasPending(p.ID) {
		return 0, false, false
	}
	if o.left == 0 {
		return 0, false, true
	}
	c := p.chunk(o.left)
	o.left -= c
	return p.chargeCompute(c), true, false
}
