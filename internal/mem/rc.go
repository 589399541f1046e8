package mem

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Consistency selects the memory consistency model.
type Consistency int

const (
	// SC is sequential consistency: every store stalls the processor
	// until ownership is held (Alewife's model; the paper's baseline).
	SC Consistency = iota
	// RC is release consistency with blocking loads: stores retire into
	// a finite write buffer and complete asynchronously; synchronization
	// operations (RMW/Update, and explicit Fences at lock releases)
	// drain the buffer. This is the latency-tolerance technique the
	// paper's Section 2 describes but Alewife did not implement — built
	// here as an extension and exercised by the ablation benchmarks.
	RC
)

func (c Consistency) String() string {
	if c == RC {
		return "release-consistency"
	}
	return "sequential-consistency"
}

// rcState is the per-node write-buffer state used under RC.
type rcState struct {
	// values pending per address (latest store wins; loads forward).
	pending map[Addr]float64
	// outstanding counts write transactions issued by buffered stores.
	outstanding int
	// waiters are threads blocked in Fence (or on a full buffer).
	waiters []waiter
}

func (nm *nodeMem) rc() *rcState {
	if nm.rcSt == nil {
		nm.rcSt = &rcState{pending: make(map[Addr]float64)}
	}
	return nm.rcSt
}

// StoreWordRelaxed is the RC store path: it never blocks unless the write
// buffer is full. Visibility is guaranteed only after a Fence (or an
// atomic operation, which fences implicitly).
func (s *System) storeRelaxed(th *sim.Thread, node int, a Addr, v float64, bd *stats.Breakdown, bucket stats.TimeBucket) {
	nm := s.nodes[node]
	rc := nm.rc()
	line := LineOf(a, s.par.LineWords)

	// Retire into the buffer (loads will forward from here).
	rc.pending[a] = v
	apply := action{kind: actRCStore, a: a}

	if t := nm.pending[line]; t != nil && t.write {
		// Join the in-flight write transaction without blocking.
		rc.outstanding++
		t.onComplete = append(t.onComplete, apply)
		s.chargeStoreIssue(th, bd)
		return
	}
	if st := nm.cache.lookup(line); st == lineModified {
		// Ownership already held: complete immediately.
		s.store.Poke(a, v)
		delete(rc.pending, a)
		d := s.cyc(s.par.HitCycles)
		bd.Add(stats.BucketCompute, d)
		th.Sleep(d)
		return
	}
	if t := nm.pending[line]; t != nil {
		// A read transaction is in flight; wait it out, then retry (the
		// rare case — still non-blocking in the common paths).
		s.wait(t, th, bd, bucket)
		s.storeRelaxed(th, node, a, v, bd, bucket)
		return
	}
	if i := nm.cache.pfLookup(line); i >= 0 {
		// A prefetched copy exists: consume it (leaving it would strand a
		// duplicate — and possibly second-Modified — copy in the prefetch
		// buffer once the store's own fill lands in the cache).
		pst, pgen := nm.cache.pfTake(i)
		s.installLine(node, line, pst, pgen)
		s.ev.PrefetchUseful++
		if pst == lineModified {
			// Prefetched ownership: the store completes locally.
			s.store.Poke(a, v)
			delete(rc.pending, a)
			d := s.cyc(s.par.PrefetchMoveCycles)
			bd.Add(stats.BucketCompute, d)
			th.Sleep(d)
			return
		}
		// Shared copy promoted to cache; fall through to the upgrade.
	}

	// Full buffer applies back-pressure.
	for rc.outstanding >= s.par.WriteBufferDepth {
		rc.waiters = append(rc.waiters, waiter{th: th, bd: bd, bucket: bucket, start: th.Now()})
		th.SetWaitReason("rc-buffer-full", int64(rc.outstanding))
		th.Pause()
	}

	rc.outstanding++
	t := s.startTxn(node, line, true, false)
	t.onComplete = append(t.onComplete, apply)
	s.chargeStoreIssue(th, bd)
}

// applyRC completes one buffered store of node's at a: it applies the
// latest buffered value (a newer store to the same address may have
// superseded the one that issued the transaction) and wakes the
// fence and full-buffer waiters.
func (s *System) applyRC(node int, a Addr) {
	rc := s.nodes[node].rcSt
	if cur, ok := rc.pending[a]; ok {
		s.store.Poke(a, cur)
		delete(rc.pending, a)
	}
	rc.outstanding--
	s.wakeRC(node, rc)
}

// chargeStoreIssue charges the small processor-side cost of issuing a
// buffered store.
func (s *System) chargeStoreIssue(th *sim.Thread, bd *stats.Breakdown) {
	d := s.cyc(s.par.HitCycles)
	bd.Add(stats.BucketCompute, d)
	th.Sleep(d)
}

// wakeRC wakes all fence/full-buffer waiters to recheck their condition.
func (s *System) wakeRC(node int, rc *rcState) {
	ws := rc.waiters
	rc.waiters = nil
	now := s.eng.Now()
	for _, w := range ws {
		w.bd.Add(w.bucket, now-w.start)
		w.th.WakeAt(now)
	}
}

// Fence blocks until every buffered store by node has completed. A no-op
// under sequential consistency (stores already blocked).
func (s *System) Fence(th *sim.Thread, node int, bd *stats.Breakdown, bucket stats.TimeBucket) {
	if s.par.Consistency != RC {
		return
	}
	rc := s.nodes[node].rc()
	for rc.outstanding > 0 {
		rc.waiters = append(rc.waiters, waiter{th: th, bd: bd, bucket: bucket, start: th.Now()})
		th.SetWaitReason("rc-fence", int64(rc.outstanding))
		th.Pause()
	}
}

// rcForward returns the pending buffered value for a, if any (RC loads
// must observe the node's own program order).
func (s *System) rcForward(node int, a Addr) (float64, bool) {
	if s.par.Consistency != RC {
		return 0, false
	}
	nm := s.nodes[node]
	if nm.rcSt == nil {
		return 0, false
	}
	v, ok := nm.rcSt.pending[a]
	return v, ok
}
