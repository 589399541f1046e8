package mem

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// System is the distributed shared-memory system: one cache + home
// directory + controller per node, connected by the mesh (or, in the
// Figure 10 ideal-network mode, by a uniform fixed-latency fabric).
//
// Data correctness note. Shared values live in the authoritative Store;
// loads and stores complete against it at their simulated completion
// times, and the protocol supplies timing and ordering. The applications
// are data-race-free (locks, barriers, dataflow counters), so results are
// exact. Protocol corner-case races (e.g. a write-back crossing a
// re-request) are resolved defensively and can at worst perturb message
// accounting by a packet or two, never data values.
type System struct {
	eng   *sim.Engine
	net   *mesh.Network
	clk   sim.Clock
	par   Params
	store *Store
	// nodes is per-node protocol state: cache, directory, controller
	// pipeline, outstanding transactions.
	nodes []*nodeMem
	// ev is the protocol event accounting, summed over all nodes.
	ev stats.Events

	idealNet    bool
	idealOneWay sim.Time

	// tr, when non-nil, receives protocol trace events.
	tr *obs.Ring[obs.Event]

	// crit, when non-nil, receives the critical-path decomposition of
	// miss waits and the miss/txn causal edges.
	crit *obs.CritRecorder

	// Pooled protocol records (see newTxn, newLeg, writeback).
	txnFree freeList[txn]
	legFree freeList[leg]
	wbFree  freeList[writeBack]
}

// SetTrace attaches an event trace buffer (nil disables tracing).
func (s *System) SetTrace(tr *obs.Ring[obs.Event]) { s.tr = tr }

// SetCritPath attaches a critical-path recorder (nil disables). Purely
// passive: recording never perturbs protocol timing.
func (s *System) SetCritPath(cr *obs.CritRecorder) { s.crit = cr }

// nodeMem is the per-node memory-side state.
type nodeMem struct {
	cache   *cache
	dir     *directory
	ctlFree sim.Time
	pending map[Addr]*txn
	rcSt    *rcState // write buffer, allocated on first RC store
}

// txn is an outstanding miss transaction at the requesting node. Records
// are pooled per System: newTxn takes one when a miss starts and
// complete returns it as its very last act. Every step a transaction
// schedules is a method value bound once per record (step), so
// scheduling a step allocates nothing.
type txn struct {
	s        *System
	line     Addr
	home     int // the line's home node
	node     int // the requesting node
	write    bool
	prefetch bool
	atomic   bool     // RMW/Update: requires exclusivity even under ProtocolUpdate
	granted  bool     // home has issued the reply (it is en route)
	gen      uint64   // dirEntry.modGen of a Modified grant (0 for shared grants)
	start    sim.Time // issue time, for the critical-path edges

	// Home-side state, set once the request reaches home.
	e     *dirEntry // the line's directory entry
	owner int       // the third party an owner fetch visits
	acks  int       // acknowledgements an invalidation or update round awaits
	extra sim.Time  // LimitLESS penalty the round's grant adds
	st    lineState // the state the grant installs at the requester

	waiters    []waiter
	onComplete []action // run in order when the transaction completes

	msg  courier // the request, owner fetch and reply, one at a time
	step txnSteps
}

// txnSteps are a transaction's protocol steps, bound to its record once.
type txnSteps struct {
	sendRequest, reachHome              func()
	dispatch, process, serveHome        func()
	reachOwner, fetch, fetchNow         func()
	returnHome, ownerDone               func()
	sendReply, reachRequester, complete func()
}

// leg is one sharer's part of an invalidation or update round: the
// home's message to the sharer, the sharer's step, and its
// acknowledgement back to home. Legs are pooled like transactions.
type leg struct {
	s      *System
	t      *txn // the write transaction whose round this is
	sh     int  // the sharer
	update bool // an update round: data pushed, the sharer keeps its copy
	msg    courier
	step   legSteps
}

// legSteps are a leg's protocol steps, bound to its record once.
type legSteps struct {
	reachSharer, atSharer, sendAck, reachHome, acked func()
}

// writeBack is a dirty eviction's write-back to home. Write-backs are
// pooled like transactions.
type writeBack struct {
	s    *System
	node int // the evicting node
	home int
	line Addr
	gen  uint64 // the ownership generation the evicted copy was granted under
	msg  courier
	step struct{ reachHome, apply func() }
}

// freeList is a pool of one kind of protocol record.
type freeList[T any] []*T

// get takes a record from the pool, or returns nil if it is empty.
func (f *freeList[T]) get() *T {
	n := len(*f)
	if n == 0 {
		return nil
	}
	r := (*f)[n-1]
	*f = (*f)[:n-1]
	return r
}

func (f *freeList[T]) put(r *T) { *f = append(*f, r) }

// courier carries a pooled record's protocol messages, one at a time:
// the packet each rides in and the step its arrival runs. Coherence
// packets pass through the endpoint straight to Deliver, and a record
// sends its next message only from a later step, so the network is done
// with the packet by the time it is reused. The packet's Deliver, and
// the delivery event the network binds on its first send, stay bound
// for the record's life: sendCoh sets only the addressing fields.
type courier struct {
	pkt    mesh.Packet
	arrive func()
}

// bind makes c's packet run c's arrival step on delivery.
func (c *courier) bind() { c.pkt.Deliver = c.delivered }

func (c *courier) delivered(sim.Time, *mesh.Packet) { c.arrive() }

// action is one thing a transaction does when it completes, in the
// order actions were added: write an SC store's value, apply a buffered
// RC store from the write buffer, or call a function (an atomic's
// update, or a protocol step deferred until the fill).
type action struct {
	kind actionKind
	a    Addr
	v    float64
	fn   func()
}

type actionKind uint8

const (
	actNone    actionKind = iota
	actStore              // write v at a
	actRCStore            // apply the write buffer's latest value at a
	actCall               // call fn
)

// call wraps fn as an action.
func call(fn func()) action { return action{kind: actCall, fn: fn} }

// do runs x on behalf of node, the node whose transaction or access it
// belongs to.
func (s *System) do(node int, x action) {
	switch x.kind {
	case actStore:
		s.store.Poke(x.a, x.v)
	case actRCStore:
		s.applyRC(node, x.a)
	case actCall:
		x.fn()
	}
}

type waiter struct {
	th     *sim.Thread
	bd     *stats.Breakdown
	bucket stats.TimeBucket
	start  sim.Time
}

// NewSystem builds the memory system over an existing store and network.
// The network's endpoints are not touched: coherence packets carry their
// own Deliver callbacks, so any endpoint that invokes Deliver (including
// mesh.AcceptAll) suffices.
func NewSystem(eng *sim.Engine, net *mesh.Network, clk sim.Clock, par Params, store *Store) *System {
	if net != nil && net.Nodes() != store.Nodes() {
		panic(fmt.Sprintf("mem: network has %d nodes, store has %d", net.Nodes(), store.Nodes()))
	}
	if store.Nodes() > MaxNodes {
		panic(fmt.Sprintf("mem: %d nodes exceeds the %d-node sharer bitset capacity", store.Nodes(), MaxNodes))
	}
	s := &System{eng: eng, net: net, clk: clk, par: par, store: store}
	s.nodes = make([]*nodeMem, store.Nodes())
	for i := range s.nodes {
		s.nodes[i] = &nodeMem{
			cache:   newCache(par),
			dir:     newDirectory(),
			pending: make(map[Addr]*txn),
		}
	}
	return s
}

// SetIdealNetwork switches coherence traffic to the paper's Figure 10
// emulation: every protocol message takes exactly oneWay regardless of
// distance or load (uniform access times, infinite bandwidth).
func (s *System) SetIdealNetwork(oneWay sim.Time) {
	s.idealNet = true
	s.idealOneWay = oneWay
}

// Params returns the memory parameters.
func (s *System) Params() Params { return s.par }

// ReleasePools drops the pooled protocol records, so a machine kept for
// its results after its run pins none of them. Later misses build fresh
// records.
func (s *System) ReleasePools() { s.txnFree, s.legFree, s.wbFree = nil, nil, nil }

// Events returns the accumulated protocol event counters.
func (s *System) Events() stats.Events { return s.ev }

func (s *System) cyc(n int64) sim.Time { return s.clk.Cycles(n) }

// lineHome returns the home node of a line.
func (s *System) lineHome(line Addr) int {
	return s.store.Home(line * Addr(s.par.LineWords))
}

// atCtl serializes fn through node's controller. The controller is
// pipelined: each operation's result is available HomeOccCycles after it
// starts, but the controller accepts a new operation every
// CtlServiceCycles (occupancy < latency, as in the CMMU).
func (s *System) atCtl(node int, fn func()) {
	nm := s.nodes[node]
	start := s.eng.Now()
	if nm.ctlFree > start {
		start = nm.ctlFree
	}
	nm.ctlFree = start + s.cyc(s.par.CtlServiceCycles)
	s.eng.At(start+s.cyc(s.par.HomeOccCycles), fn)
}

// sendCoh moves a protocol message from src to dst in c's packet and
// runs arrive at arrival. Local (src==dst) messages bypass the network;
// ideal-network mode replaces transit with the fixed one-way latency.
func (s *System) sendCoh(src, dst int, class mesh.Class, payloadBytes int, c *courier, arrive func()) {
	switch {
	case src == dst:
		s.eng.After(0, arrive)
	case s.idealNet:
		s.eng.After(s.idealOneWay, arrive)
	default:
		c.arrive = arrive
		p := &c.pkt
		p.Src, p.Dst, p.Class = src, dst, class
		p.HdrBytes, p.PayloadBytes = s.par.HdrBytes, payloadBytes
		s.net.Send(p)
	}
}

// ---------------------------------------------------------------------------
// Processor-facing operations
// ---------------------------------------------------------------------------

// Load performs a blocking sequentially-consistent load by node's
// processor thread th, charging stall time to bd's bucket.
func (s *System) Load(th *sim.Thread, node int, a Addr, bd *stats.Breakdown, bucket stats.TimeBucket) float64 {
	if v, ok := s.rcForward(node, a); ok {
		// Read-own-write forwarding from the write buffer.
		th.Sleep(s.chargeHit(bd))
		return v
	}
	s.access(th, node, a, false, action{}, bd, bucket)
	return s.store.Peek(a)
}

// ReadHit probes a Load by node's processor without blocking. When the
// Load would be a plain cache hit, it charges the hit's HitCycles to
// bd's compute bucket, as Load does, and returns their duration: the
// caller sleeps for it and then reads the word with Store.Peek, which is
// what Load returns. Otherwise (a store forwarded from the RC write
// buffer, an invalid line, a line only in the prefetch buffer) it
// changes nothing and returns false, and the caller makes the Load.
func (s *System) ReadHit(node int, a Addr, bd *stats.Breakdown) (sim.Time, bool) {
	if _, ok := s.rcForward(node, a); ok {
		return 0, false
	}
	if !s.nodes[node].readHit(LineOf(a, s.par.LineWords)) {
		return 0, false
	}
	return s.chargeHit(bd), true
}

// chargeHit charges one cache hit, HitCycles, to bd's compute bucket and
// returns its duration.
func (s *System) chargeHit(bd *stats.Breakdown) sim.Time {
	d := s.cyc(s.par.HitCycles)
	bd.Add(stats.BucketCompute, d)
	return d
}

// readHit is the read-hit rule: a read hits when the cache proper holds
// the line, Shared or Modified, whether or not a transaction for it is
// in flight (a buffered RC store's upgrade or a write prefetch need not
// block a read of the copy already present).
func (nm *nodeMem) readHit(line Addr) bool { return nm.cache.lookup(line) != lineInvalid }

// StoreWord performs a store: blocking under sequential consistency,
// buffered under release consistency.
func (s *System) StoreWord(th *sim.Thread, node int, a Addr, v float64, bd *stats.Breakdown, bucket stats.TimeBucket) {
	if s.par.Consistency == RC {
		s.storeRelaxed(th, node, a, v, bd, bucket)
		return
	}
	s.access(th, node, a, true, action{kind: actStore, a: a, v: v}, bd, bucket)
}

// RMW performs an atomic read-modify-write: fn is applied to the current
// value at the moment write ownership is held. It returns the value fn
// returned. Atomicity follows from per-line ownership serialization.
func (s *System) RMW(th *sim.Thread, node int, a Addr, fn func(float64) float64, bd *stats.Breakdown, bucket stats.TimeBucket) float64 {
	s.Fence(th, node, bd, bucket) // atomics order buffered stores
	var out float64
	s.accessEx(th, node, a, true, true, call(func() { out = fn(s.store.Peek(a)); s.store.Poke(a, out) }), bd, bucket)
	return out
}

// Update performs an atomic update of up to a line's worth of state: fn
// runs once write ownership of a's line is held. It exists for the
// paper's producer-computes ICCG pattern, where a value and its presence
// counter share a cache line and a single ownership acquisition covers
// both.
func (s *System) Update(th *sim.Thread, node int, a Addr, fn func(), bd *stats.Breakdown, bucket stats.TimeBucket) {
	s.Fence(th, node, bd, bucket) // atomics order buffered stores
	s.accessEx(th, node, a, true, true, call(fn), bd, bucket)
}

// Prefetch issues a non-binding prefetch of a's line (write requests
// exclusive ownership). It never blocks; the caller charges issue cost.
func (s *System) Prefetch(node int, a Addr, write bool) {
	s.ev.PrefetchIssued++
	nm := s.nodes[node]
	line := LineOf(a, s.par.LineWords)
	if t := nm.pending[line]; t != nil {
		return // already inbound
	}
	st := nm.cache.lookup(line)
	if st == lineModified || (st == lineShared && !write) {
		return // already sufficient: useless-local prefetch, issue cost only
	}
	if i := nm.cache.pfLookup(line); i >= 0 {
		pst := nm.cache.pf[i].state
		if pst == lineModified || (pst == lineShared && !write) {
			return
		}
		// Shared copy but exclusive wanted: drop it so the write-prefetch
		// fill doesn't leave a stale duplicate behind.
		nm.cache.pfTake(i)
	}
	s.startTxn(node, line, write, true)
}

// access is the common blocking path for loads, stores and RMWs. apply
// runs once the access is satisfied (actNone for a load).
func (s *System) access(th *sim.Thread, node int, a Addr, write bool, apply action, bd *stats.Breakdown, bucket stats.TimeBucket) {
	s.accessEx(th, node, a, write, false, apply, bd, bucket)
}

// accessEx is access with the atomicity requirement made explicit.
func (s *System) accessEx(th *sim.Thread, node int, a Addr, write, atomic bool, apply action, bd *stats.Breakdown, bucket stats.TimeBucket) {
	line := LineOf(a, s.par.LineWords)
	nm := s.nodes[node]
	if !write && nm.readHit(line) {
		th.Sleep(s.chargeHit(bd))
		return
	}
	for {
		if t := nm.pending[line]; t != nil {
			if !write || t.write {
				// Join the in-flight transaction.
				if t.prefetch {
					t.prefetch = false
					s.ev.PrefetchUseful++
				}
				if apply.kind != actNone {
					t.onComplete = append(t.onComplete, apply)
				}
				s.wait(t, th, bd, bucket)
				return
			}
			// A write cannot join a read transaction: wait it out, retry.
			s.wait(t, th, bd, bucket)
			continue
		}

		st := nm.cache.lookup(line)
		if st == lineModified {
			// Write hit (a read hit returned above).
			th.Sleep(s.chargeHit(bd))
			if apply.kind != actNone {
				s.do(node, apply)
			}
			return
		}

		if i := nm.cache.pfLookup(line); i >= 0 {
			pst := nm.cache.pf[i].state
			if pst == lineModified || (pst == lineShared && !write) {
				// Satisfied from the prefetch buffer: move into cache.
				_, pgen := nm.cache.pfTake(i)
				s.installLine(node, line, pst, pgen)
				s.ev.PrefetchUseful++
				d := s.cyc(s.par.PrefetchMoveCycles)
				bd.Add(bucket, d)
				th.Sleep(d)
				if apply.kind != actNone {
					s.do(node, apply)
				}
				return
			}
			// Present but in insufficient state (S, need M): promote to
			// cache as shared, then fall through to an upgrade miss.
			nm.cache.pfTake(i)
			s.installLine(node, line, lineShared, 0)
			s.ev.PrefetchUseful++
			st = lineShared
		}

		if write && st == lineShared {
			s.ev.Upgrades++
		}
		t := s.startTxn(node, line, write, false)
		t.atomic = atomic
		if apply.kind != actNone {
			t.onComplete = append(t.onComplete, apply)
		}
		s.wait(t, th, bd, bucket)
		return
	}
}

// wait blocks th until t completes, charging the elapsed stall.
func (s *System) wait(t *txn, th *sim.Thread, bd *stats.Breakdown, bucket stats.TimeBucket) {
	t.waiters = append(t.waiters, waiter{th: th, bd: bd, bucket: bucket, start: th.Now()})
	th.SetWaitReason("mem-miss line", int64(t.line))
	th.Pause()
}

// installLine places a line into node's cache, emitting any victim
// write-back.
func (s *System) installLine(node int, line Addr, st lineState, gen uint64) {
	victim, dirty, victimGen := s.nodes[node].cache.fill(line, st, gen)
	if victim != NilAddr && dirty {
		s.writeback(node, victim, victimGen)
	}
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

// newTxn takes a transaction record from the pool, or builds one and
// binds its steps.
func (s *System) newTxn() *txn {
	if t := s.txnFree.get(); t != nil {
		return t
	}
	t := &txn{s: s}
	t.msg.bind()
	t.step = txnSteps{
		sendRequest: t.sendRequest, reachHome: t.reachHome,
		dispatch: t.dispatch, process: t.process, serveHome: t.serveHome,
		reachOwner: t.reachOwner, fetch: t.fetch, fetchNow: t.fetchNow,
		returnHome: t.returnHome, ownerDone: t.ownerDone,
		sendReply: t.sendReply, reachRequester: t.reachRequester, complete: t.complete,
	}
	return t
}

// freeTxn returns a finished transaction's record to the pool. Its
// slices keep their capacity but are cleared, so a pooled record pins no
// callback or thread; its courier keeps its bound packet.
func (s *System) freeTxn(t *txn) {
	clear(t.waiters)
	clear(t.onComplete)
	*t = txn{s: s, waiters: t.waiters[:0], onComplete: t.onComplete[:0],
		msg: t.msg, step: t.step}
	s.txnFree.put(t)
}

// newLeg takes a round-leg record from the pool, or builds one.
func (s *System) newLeg(t *txn, sh int, update bool) *leg {
	l := s.legFree.get()
	if l == nil {
		l = &leg{s: s}
		l.msg.bind()
		l.step = legSteps{reachSharer: l.reachSharer, atSharer: l.atSharer, sendAck: l.sendAck,
			reachHome: l.reachHome, acked: l.acked}
	}
	l.t, l.sh, l.update = t, sh, update
	return l
}

// freeLeg returns a finished leg's record to the pool.
func (s *System) freeLeg(l *leg) {
	l.t = nil
	s.legFree.put(l)
}

// startTxn opens a miss transaction at node and routes the request to
// the line's home controller.
func (s *System) startTxn(node int, line Addr, write, prefetch bool) *txn {
	if s.tr != nil {
		w := int64(0)
		if write {
			w = 1
		}
		s.tr.Add(obs.Event{At: s.eng.Now(), Node: node, Kind: obs.KMissStart, A: int64(line), B: w})
	}
	t := s.newTxn()
	t.line, t.home, t.node = line, s.lineHome(line), node
	t.write, t.prefetch, t.start = write, prefetch, s.eng.Now()
	s.nodes[node].pending[line] = t
	if node == t.home {
		// Local request: no network issue cost; straight to the controller.
		s.atCtl(t.home, t.step.dispatch)
		return t
	}
	s.eng.After(s.cyc(s.par.ReqCycles), t.step.sendRequest)
	return t
}

// sendRequest sends the request to home once the requester has issued it.
func (t *txn) sendRequest() {
	t.s.sendCoh(t.node, t.home, mesh.ClassCohReq, 0, &t.msg, t.step.reachHome)
}

// reachHome passes the arrived request to the home controller.
func (t *txn) reachHome() { t.s.atCtl(t.home, t.step.dispatch) }

// dispatch runs at the home controller when a request arrives. The
// directory entry services one request at a time; while one is in
// service (busy), later arrivals park in a strict FIFO queue. release
// pops exactly one queued request per completion, so no requester can
// starve behind faster re-requesters.
func (t *txn) dispatch() {
	s := t.s
	e := s.nodes[t.home].dir.entry(t.line)
	t.e = e
	if e.busy {
		e.queue = append(e.queue, t)
		return
	}
	e.busy = true
	t.process()
}

// process services one request; e.busy is held by the caller and
// released via s.release at every terminal point.
func (t *txn) process() {
	s, e := t.s, t.e
	home, req, line, write := t.home, t.node, t.line, t.write
	if e.state == dirModified && e.owner != req {
		if e.owner == home {
			// Dirty in the home's own cache: the controller pulls the
			// line from its processor's cache inline (serveHome). If the
			// home's own write grant is still in flight (ownership
			// recorded, fill pending), defer until the fill completes:
			// invalidating the cache now would miss the in-flight fill and
			// leave two Modified copies (mirrors fetch's deferral).
			if ot := s.nodes[home].pending[line]; ot != nil && ot.write && ot.granted {
				ot.onComplete = append(ot.onComplete, call(t.step.serveHome))
				return
			}
			t.serveHome()
			return
		}
		// Dirty at a third party: fetch (and for writes, invalidate) the
		// owner's copy.
		s.ev.RemoteMissesDty++
		t.owner = e.owner
		class := mesh.ClassCohReq
		if write {
			class = mesh.ClassCohInval
			s.ev.Invalidations++
		}
		s.sendCoh(home, t.owner, class, 0, &t.msg, t.step.reachOwner)
		return
	}

	if e.state == dirModified && e.owner == req {
		// Late write-back race: the requestor evicted its dirty copy and
		// the write-back is still in flight. Safe to treat as uncached.
		e.state = dirUncached
		e.sharers = sharerSet{}
		e.owner = -1
	}

	if !write {
		s.countMiss(home, req)
		extra := sim.Time(0)
		if e.sharers.count() >= s.par.HWPointers {
			s.ev.LimitLESSTraps++
			extra = s.cyc(s.par.LimitLESSCycles)
		}
		e.state = dirShared
		e.sharers.add(req)
		s.grant(t, false, extra)
		s.release(home, e)
		return
	}

	// Write: invalidate all other sharers first.
	shs := e.sharers
	shs.remove(req)
	if shs.count() == 0 {
		s.countMiss(home, req)
		t.takeOwnership()
		s.grant(t, true, 0)
		s.release(home, e)
		return
	}
	s.countMiss(home, req)
	if s.par.Protocol == ProtocolUpdate && !t.atomic {
		s.updateRound(t, shs)
		return
	}
	if shs.count() >= s.par.HWPointers {
		s.ev.LimitLESSTraps++
		// Software walks the overflow directory and invalidates each
		// sharer: a fixed trap cost plus a per-sharer term.
		t.extra = s.cyc(s.par.LimitLESSCycles + s.par.LimitLESSPerSharerCycles*int64(shs.count()))
	}
	t.acks = shs.count()
	shs.forEach(func(sh int) {
		s.ev.Invalidations++
		l := s.newLeg(t, sh, false)
		s.sendCoh(home, sh, mesh.ClassCohInval, 0, &l.msg, l.step.reachSharer)
	})
}

// takeOwnership records the requester as the line's Modified owner and
// stamps the grant with the new ownership generation.
func (t *txn) takeOwnership() {
	e := t.e
	e.state = dirModified
	e.owner = t.node
	e.sharers = sharerSet{}
	e.sharers.add(t.node)
	e.modGen++
	t.gen = e.modGen
}

// serveHome serves a request for a line dirty in the home's own cache:
// the controller pulls the line from its processor's cache inline — no
// network, no extra controller passes (Alewife's 2-party dirty case).
func (t *txn) serveHome() {
	s, e, home := t.s, t.e, t.home
	s.ev.RemoteMissesDty++
	if t.write {
		s.ev.Invalidations++
		s.nodes[home].cache.invalidate(t.line)
		t.takeOwnership()
	} else {
		s.nodes[home].cache.downgrade(t.line)
		e.state = dirShared
		e.sharers = sharerSet{}
		e.sharers.add(home)
		e.sharers.add(t.node)
		e.owner = -1
	}
	s.grant(t, t.write, 0)
	s.release(home, e)
}

// countMiss classifies a (non-dirty-path) miss as local or remote-clean.
func (s *System) countMiss(home, req int) {
	if req == home {
		s.ev.LocalMisses++
	} else {
		s.ev.RemoteMissesCln++
	}
}

// reachSharer passes the home's invalidation or update to the sharer's
// controller.
func (l *leg) reachSharer() { l.s.atCtl(l.sh, l.step.atSharer) }

// atSharer runs at the sharer's controller: an update leaves the copy in
// place and acknowledges at once; an invalidation drops it first.
func (l *leg) atSharer() {
	if l.update {
		l.sendAck()
		return
	}
	l.s.invalidateAt(l.sh, l.t.line, l.step.sendAck)
}

// sendAck returns the sharer's acknowledgement to home.
func (l *leg) sendAck() {
	class := mesh.ClassCohInval
	if l.update {
		class = mesh.ClassCohAck
	}
	l.s.sendCoh(l.sh, l.t.home, class, 0, &l.msg, l.step.reachHome)
}

// reachHome passes the arrived acknowledgement to the home controller.
func (l *leg) reachHome() { l.s.atCtl(l.t.home, l.step.acked) }

// acked counts one acknowledgement at home. The last one of a round
// grants the write: Modified after an invalidation round, Shared after
// an update round.
func (l *leg) acked() {
	s, t, update := l.s, l.t, l.update
	s.freeLeg(l)
	t.acks--
	if t.acks > 0 {
		return
	}
	if update {
		s.grantState(t, lineShared, 0)
	} else {
		t.takeOwnership()
		s.grant(t, true, t.extra)
	}
	s.release(t.home, t.e)
}

// invalidateAt removes a line from a node's cache, deferring if a reply
// granting a Shared copy is in flight (the 8-byte invalidation can
// overtake the 24-byte data reply in the network; acking first would
// install a stale shared copy). Reads are granted Shared, and so are
// writes under the update protocol. Deferral is safe only for such
// granted transactions, which complete independently of the
// invalidation round.
func (s *System) invalidateAt(node int, line Addr, ack func()) {
	nm := s.nodes[node]
	if t := nm.pending[line]; t != nil && t.granted && t.st == lineShared {
		t.onComplete = append(t.onComplete, call(func() {
			nm.cache.invalidate(line)
			ack()
		}))
		return
	}
	if s.tr != nil {
		s.tr.Add(obs.Event{At: s.eng.Now(), Node: node, Kind: obs.KInval, A: int64(line)})
	}
	nm.cache.invalidate(line)
	ack()
}

// reachOwner passes the home's fetch to the owner's controller.
func (t *txn) reachOwner() { t.s.atCtl(t.owner, t.step.fetch) }

// fetch runs at the current owner when the home requests its dirty
// copy (ownerFetch). If the owner's own write grant is still in flight,
// the fetch defers until the fill completes (ownership must be observed
// before it can be taken away).
func (t *txn) fetch() {
	if ot := t.s.nodes[t.owner].pending[t.line]; ot != nil && ot.write && ot.granted {
		ot.onComplete = append(ot.onComplete, call(t.step.fetchNow))
		return
	}
	t.fetchNow()
}

// fetchNow surrenders the owner's dirty copy immediately and returns the
// line to home.
func (t *txn) fetchNow() {
	s := t.s
	nm := s.nodes[t.owner]
	if t.write {
		nm.cache.invalidate(t.line)
	} else {
		nm.cache.downgrade(t.line)
	}
	s.sendCoh(t.owner, t.home, mesh.ClassCohData, s.par.LineBytes, &t.msg, t.step.returnHome)
}

// returnHome passes the owner's returned line to the home controller.
func (t *txn) returnHome() { t.s.atCtl(t.home, t.step.ownerDone) }

// ownerDone records the owner fetch's outcome at home and grants.
func (t *txn) ownerDone() {
	s, e := t.s, t.e
	if t.write {
		t.takeOwnership()
	} else {
		e.state = dirShared
		e.sharers = sharerSet{}
		e.sharers.add(t.owner)
		e.sharers.add(t.node)
		e.owner = -1
	}
	s.grant(t, t.write, 0)
	s.release(t.home, e)
}

// updateRound implements the write-through update protocol: the written
// data is pushed to every sharer (which keeps its copy), acks return, and
// the writer is granted a SHARED copy — its next store to the line pays
// another round trip, and its readers never refetch.
func (s *System) updateRound(t *txn, shs sharerSet) {
	e := t.e
	e.state = dirShared
	e.sharers.add(t.node)
	if shs.count() == 0 {
		s.grantState(t, lineShared, 0)
		s.release(t.home, e)
		return
	}
	e.busy = true
	t.acks = shs.count()
	shs.forEach(func(sh int) {
		// Update carries the new data: header + one word.
		l := s.newLeg(t, sh, true)
		s.sendCoh(t.home, sh, mesh.ClassCohData, 8, &l.msg, l.step.reachSharer)
	})
}

// grant sends the data reply to the requestor after DRAM access (plus any
// LimitLESS software penalty) and marks the transaction granted.
func (s *System) grant(t *txn, write bool, extra sim.Time) {
	st := lineShared
	if write {
		st = lineModified
	}
	s.grantState(t, st, extra)
}

// grantState is grant with an explicit final cache state for the
// requestor (the update protocol grants writes as shared).
func (s *System) grantState(t *txn, st lineState, extra sim.Time) {
	t.granted = true
	t.st = st
	if s.crit != nil {
		// Directory txn begin→grant edge, recorded at the home (the grant
		// side); the requester-side view is the later miss→fill edge.
		s.crit.Edge(obs.CritEdge{Kind: obs.EdgeTxn, Src: t.node, Dst: t.home, Start: t.start, End: s.eng.Now()})
	}
	if t.node == t.home {
		// Local fill: no reply message; LocalMissCycles covers the DRAM
		// path (calibrated to the paper's ~11-cycle local miss).
		rest := s.par.LocalMissCycles - s.par.HomeOccCycles
		if rest < 0 {
			rest = 0
		}
		s.eng.After(s.cyc(rest)+extra, t.step.complete)
		return
	}
	// The DRAM delay elapses at home; the reply's delivery callback (and
	// so the fill timer) runs at the requestor.
	s.eng.After(s.cyc(s.par.DRAMCycles)+extra, t.step.sendReply)
}

// sendReply sends the data reply once the home's DRAM access is done.
func (t *txn) sendReply() {
	t.s.sendCoh(t.home, t.node, mesh.ClassCohData, t.s.par.LineBytes, &t.msg, t.step.reachRequester)
}

// reachRequester starts the requester's cache fill on the reply's arrival.
func (t *txn) reachRequester() { t.s.eng.After(t.s.cyc(t.s.par.FillCycles), t.step.complete) }

// release finishes one request's service: it hands the entry to the
// oldest queued request (keeping busy held across the handoff so fresh
// arrivals cannot jump the queue) or marks the entry idle.
func (s *System) release(home int, e *dirEntry) {
	if len(e.queue) > 0 {
		t := e.queue[0]
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = nil
		e.queue = e.queue[:n]
		s.atCtl(home, t.step.process)
		return
	}
	e.busy = false
}

// complete finishes the transaction at the requester: it installs the
// line, runs deferred operations, wakes waiting threads and, last of
// all, returns the record to the pool.
func (t *txn) complete() {
	s, node, line := t.s, t.node, t.line
	nm := s.nodes[node]
	if t.prefetch {
		evicted, dirty, evictedGen := nm.cache.pfFill(line, t.st, t.gen)
		if evicted != NilAddr {
			s.ev.PrefetchUseless++
			if dirty {
				s.writeback(node, evicted, evictedGen)
			}
		}
	} else {
		s.installLine(node, line, t.st, t.gen)
	}
	delete(nm.pending, line)
	if s.tr != nil {
		s.tr.Add(obs.Event{At: s.eng.Now(), Node: node, Kind: obs.KMissEnd, A: int64(line)})
	}
	for _, x := range t.onComplete {
		s.do(node, x)
	}
	now := s.eng.Now()
	if s.crit != nil {
		s.critComplete(t, now)
	}
	for _, w := range t.waiters {
		w.bd.Add(w.bucket, now-w.start)
		w.th.WakeAt(now)
	}
	s.freeTxn(t)
}

// critComplete decomposes a completed transaction's waits for the
// critical-path recorder and emits the miss→fill edge. The wait interval
// is split in priority order: up to the uncongested round-trip flight
// time is network latency, up to the protocol's fixed cycle cost stays
// memory stall, and the remainder — serialization, queueing, directory
// occupancy, invalidation rounds — is network bandwidth/occupancy.
// Waits charged to buckets other than mem-wait (synchronization spins)
// are left whole, matching the paper's bucket convention.
func (s *System) critComplete(t *txn, now sim.Time) {
	node, home := t.node, t.home
	var latRaw, fixed sim.Time
	switch {
	case s.idealNet:
		latRaw = 2 * s.idealOneWay
		fixed = s.cyc(s.par.ReqCycles + s.par.DRAMCycles + s.par.FillCycles)
	case node == home:
		fixed = s.cyc(s.par.LocalMissCycles)
	default:
		latRaw = 2 * s.net.Latency(s.net.Hops(node, home), 0)
		fixed = s.cyc(s.par.ReqCycles + s.par.HomeOccCycles + s.par.DRAMCycles + s.par.FillCycles)
	}
	split := func(d sim.Time) (lat, bw sim.Time) {
		lat = latRaw
		if lat > d {
			lat = d
		}
		rem := d - lat
		st := fixed
		if st > rem {
			st = rem
		}
		return lat, rem - st
	}
	for _, w := range t.waiters {
		if w.bucket != stats.BucketMemWait {
			continue
		}
		lat, bw := split(now - w.start)
		s.crit.MissWait(node, lat, bw)
	}
	lat, bw := split(now - t.start)
	s.crit.Edge(obs.CritEdge{Kind: obs.EdgeMiss, Src: home, Dst: node, Start: t.start, End: now, Lat: lat, BW: bw})
}

// writeback returns a dirty evicted line to its home. gen is the
// ownership generation the evicted copy was granted under.
func (s *System) writeback(node int, line Addr, gen uint64) {
	s.ev.WriteBacks++
	w := s.wbFree.get()
	if w == nil {
		w = &writeBack{s: s}
		w.msg.bind()
		w.step.reachHome, w.step.apply = w.reachHome, w.apply
	}
	w.node, w.home, w.line, w.gen = node, s.lineHome(line), line, gen
	s.sendCoh(node, w.home, mesh.ClassCohData, s.par.LineBytes, &w.msg, w.step.reachHome)
}

// reachHome passes the arrived write-back to the home controller.
func (w *writeBack) reachHome() { w.s.atCtl(w.home, w.step.apply) }

// apply clears the directory's record of the evicted copy, unless the
// write-back is stale, and returns the record to the pool.
func (w *writeBack) apply() {
	s := w.s
	e := s.nodes[w.home].dir.entry(w.line)
	// A fast re-request (8-byte header) can overtake the slower
	// line-sized write-back packet, so by the time the write-back
	// arrives the evictor may have re-acquired ownership. Clearing
	// the directory then would let a second node be granted
	// Modified concurrently; the write-back is stale exactly when
	// its generation is not the one the directory last granted.
	// (If a re-acquisition is merely in flight, clearing is
	// harmless: the request then finds the line uncached, exactly
	// as if it had been sent after the write-back landed. The
	// generation check keeps this decision home-local.)
	if !e.busy && e.state == dirModified && e.owner == w.node &&
		e.modGen == w.gen {
		e.state = dirUncached
		e.sharers = sharerSet{}
		e.owner = -1
	}
	s.wbFree.put(w)
}

// cacheHas reports (for tests) whether node's cache or prefetch buffer
// holds addr's line.
func (s *System) cacheHas(node int, a Addr) bool {
	return s.nodes[node].cache.has(LineOf(a, s.par.LineWords))
}
