package machine

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RecvMode selects how a processor receives active messages.
type RecvMode int

const (
	// RecvInterrupt delivers messages asynchronously: a computing
	// processor is interrupted (paying interrupt entry cost) within
	// InterruptCheckCycles of arrival.
	RecvInterrupt RecvMode = iota
	// RecvPoll defers messages until the program calls Poll.
	RecvPoll
)

func (m RecvMode) String() string {
	if m == RecvPoll {
		return "poll"
	}
	return "interrupt"
}

// Proc is one simulated processor as seen by application code. All of its
// methods must be called from the processor's own body function (they run
// on its simulated thread).
type Proc struct {
	M  *Machine
	ID int
	BD stats.Breakdown
	// Ev accumulates counters owned by layers above the substrates
	// (synchronization library), written only from p's own thread; Run
	// sums them into Result.Events.
	Ev stats.Events

	th     *sim.Thread
	mode   RecvMode
	doneAt sim.Time   // when this processor's body returned (load-imbalance metric)
	wake   func()     // p.wakeNow, bound once: WaitAndHandle's arrival callback
	spin   *spinState // the spins' state (spin.go), allocated at the first spin
	ops    *Ops       // the op list and run state (ops.go), allocated at first use
}

// wakeNow resumes p's thread at the current time.
func (p *Proc) wakeNow() { p.th.WakeAt(p.th.Engine().Now()) }

// Now returns the current simulated time.
func (p *Proc) Now() sim.Time { return p.th.Now() }

// NowCycles returns the current time in processor cycles.
func (p *Proc) NowCycles() int64 { return p.M.Clk.ToCycles(p.th.Now()) }

// SetRecvMode selects interrupt or polled message reception.
func (p *Proc) SetRecvMode(m RecvMode) { p.mode = m }

// RecvMode returns the current reception mode.
func (p *Proc) RecvMode() RecvMode { return p.mode }

// Compute charges cycles of useful computation. Under interrupt
// reception, pending messages are handled at bounded intervals during
// the computation, exactly the asynchrony that perturbs processor
// progress in the paper's ICCG results.
func (p *Proc) Compute(cycles int64) {
	checkCompute(cycles)
	if d := p.dilation(); d > 0 {
		p.th.Sleep(d)
	}
	p.computeChunks(cycles)
}

// checkCompute refuses a negative compute.
func checkCompute(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("machine: negative compute %d", cycles))
	}
}

// dilation charges the host noise that dilates a compute phase starting
// now, and returns it for the caller to sleep. Host noise dilates the
// compute phase at its boundary; one-shot injected delays also fire here
// (the processor is the target, so its compute path is where the stall
// lands).
func (p *Proc) dilation() sim.Time {
	if p.M.Faults == nil {
		return 0
	}
	d := p.M.Faults.ComputeDilation(p.ID, p.th.Now())
	if d > 0 {
		p.BD.Add(stats.BucketCompute, d)
	}
	return d
}

// computeChunks is Compute after its dilation: the cycles in chunks of
// at most InterruptCheckCycles under interrupt reception, with pending
// messages handled before each chunk and after the last.
func (p *Proc) computeChunks(cycles int64) {
	for cycles > 0 {
		if p.mode == RecvInterrupt {
			p.M.AM.DrainInterrupts(p.th, p.ID, &p.BD)
		}
		c := p.chunk(cycles)
		p.th.Sleep(p.chargeCompute(c))
		cycles -= c
	}
	if p.mode == RecvInterrupt {
		p.M.AM.DrainInterrupts(p.th, p.ID, &p.BD)
	}
}

// chunk returns how many of cycles the next chunk of a compute takes.
func (p *Proc) chunk(cycles int64) int64 {
	if p.mode == RecvInterrupt {
		return min(cycles, p.M.Cfg.InterruptCheckCycles)
	}
	return cycles
}

// chargeCompute charges cycles of computation and returns their
// duration.
func (p *Proc) chargeCompute(cycles int64) sim.Time {
	d := p.M.Clk.Cycles(cycles)
	p.BD.Add(stats.BucketCompute, d)
	return d
}

// Read performs a sequentially-consistent shared-memory load.
func (p *Proc) Read(a mem.Addr) float64 {
	return p.M.Mem.Load(p.th, p.ID, a, &p.BD, stats.BucketMemWait)
}

// Write performs a sequentially-consistent shared-memory store.
func (p *Proc) Write(a mem.Addr, v float64) {
	p.M.Mem.StoreWord(p.th, p.ID, a, v, &p.BD, stats.BucketMemWait)
}

// RMW performs an atomic read-modify-write on a, returning fn's result.
func (p *Proc) RMW(a mem.Addr, fn func(float64) float64) float64 {
	return p.M.Mem.RMW(p.th, p.ID, a, fn, &p.BD, stats.BucketMemWait)
}

// Update atomically runs fn while holding exclusive ownership of a's
// line (the producer-computes pattern: value and presence counter share
// the line, one ownership acquisition covers both).
func (p *Proc) Update(a mem.Addr, fn func()) {
	p.M.Mem.Update(p.th, p.ID, a, fn, &p.BD, stats.BucketMemWait)
}

// Fence drains the write buffer under release consistency (no-op under
// sequential consistency). Synchronization releases must fence first.
func (p *Proc) Fence() {
	p.M.Mem.Fence(p.th, p.ID, &p.BD, stats.BucketMemWait)
}

// prefetchIssueCycles is the processor cost of executing one prefetch
// instruction (useful or useless).
const prefetchIssueCycles = 3

// Prefetch issues a non-binding read (write=false) or write-ownership
// (write=true) prefetch. It costs prefetchIssueCycles and never blocks.
func (p *Proc) Prefetch(a mem.Addr, write bool) {
	p.th.Sleep(p.chargeIssue())
	p.M.Mem.Prefetch(p.ID, a, write)
}

// chargeIssue charges a prefetch's issue cost to memory wait and returns
// its duration.
func (p *Proc) chargeIssue() sim.Time {
	d := p.M.Clk.Cycles(prefetchIssueCycles)
	p.BD.Add(stats.BucketMemWait, d)
	return d
}

// Peek reads shared memory without timing (initialization/validation).
func (p *Proc) Peek(a mem.Addr) float64 { return p.M.Store.Peek(a) }

// Poke writes node-private memory without coherence timing. Use only for
// data never cached remotely (ghost buffers, handler-local state).
func (p *Proc) Poke(a mem.Addr, v float64) { p.M.Store.Poke(a, v) }

// Send launches a fine-grained active message.
func (p *Proc) Send(dst int, h am.HandlerID, args []int64, vals []float64) {
	p.M.AM.Send(p.th, p.ID, dst, h, args, vals, &p.BD)
}

// SendBulk launches a DMA bulk transfer of data with handler args.
func (p *Proc) SendBulk(dst int, h am.HandlerID, args []int64, data []float64) {
	p.M.AM.SendBulk(p.th, p.ID, dst, h, args, data, &p.BD)
}

// ChargeGather charges the gather/scatter copying cost of moving words of
// irregular data to or from a contiguous DMA buffer (message overhead,
// per the paper's accounting for bulk transfer).
func (p *Proc) ChargeGather(words int) {
	d := p.M.Clk.Cycles(am.GatherScatterCycles(words))
	p.BD.Add(stats.BucketMsgOverhead, d)
	p.th.Sleep(d)
}

// Poll explicitly receives pending messages (polling mode); returns the
// number handled.
func (p *Proc) Poll() int {
	return p.M.AM.Poll(p.th, p.ID, &p.BD)
}

// WaitAndHandle blocks until at least one message is pending, then
// receives the pending batch in the current mode. Waiting time is charged
// as synchronization (the processor is idle for data). It returns the
// number of messages handled.
func (p *Proc) WaitAndHandle() int {
	if !p.M.AM.HasPending(p.ID) {
		start := p.th.Now()
		p.M.AM.Notify(p.ID, p.wake)
		p.th.SetWaitReason("await-message", 0)
		p.th.Pause()
		p.BD.Add(stats.BucketSync, p.th.Now()-start)
		if p.M.Crit != nil {
			p.critMsgWait(start, p.th.Now())
		}
	}
	if p.mode == RecvPoll {
		return p.Poll()
	}
	return p.M.AM.DrainInterrupts(p.th, p.ID, &p.BD)
}

// critMsgWait decomposes an awaited-message wait [start, end) for the
// critical-path recorder and emits the send→receive edge. The wake fires
// at the waking message's arrival, so end is its arrival time; the wait
// before the sender injected it stays synchronization (waiting for the
// sender to produce), and the in-network interval splits into uncongested
// flight time (network latency) and the serialization/queueing remainder
// (network bandwidth).
func (p *Proc) critMsgWait(start, end sim.Time) {
	src, sent, flight, ok := p.M.AM.LastArrival(p.ID)
	if !ok {
		return
	}
	transitStart := sent
	if transitStart < start {
		// The message was already in flight when the wait began; only the
		// overlap was spent waiting on the network.
		transitStart = start
	}
	transit := end - transitStart
	if transit < 0 {
		transit = 0
	}
	lat := min(flight, transit)
	p.M.Crit.MsgWait(p.ID, lat, transit-lat)
	p.M.Crit.Edge(obs.CritEdge{
		Kind: obs.EdgeMsg, Src: src, Dst: p.ID,
		Start: sent, End: end, Lat: lat, BW: transit - lat,
	})
}

// SpinCycles charges synchronization spin time without other effect;
// synchronization primitives use it for backoff waits.
func (p *Proc) SpinCycles(cycles int64) {
	d := p.M.Clk.Cycles(cycles)
	p.BD.Add(stats.BucketSync, d)
	p.th.Sleep(d)
}

// ReadSync is Read with the stall charged to synchronization (spin-wait
// loads on flags and lock words).
func (p *Proc) ReadSync(a mem.Addr) float64 {
	return p.M.Mem.Load(p.th, p.ID, a, &p.BD, stats.BucketSync)
}

// RMWSync is RMW with the stall charged to synchronization.
func (p *Proc) RMWSync(a mem.Addr, fn func(float64) float64) float64 {
	return p.M.Mem.RMW(p.th, p.ID, a, fn, &p.BD, stats.BucketSync)
}

// WriteSync is Write with the stall charged to synchronization.
func (p *Proc) WriteSync(a mem.Addr, v float64) {
	p.M.Mem.StoreWord(p.th, p.ID, a, v, &p.BD, stats.BucketSync)
}
