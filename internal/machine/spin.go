package machine

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The spins below are synchronization loops of ReadSync polls and
// SpinCycles backoffs. A poll that is a plain cache hit costs the
// processor a cache hit's compute and then reads the word; in a loop run
// on the thread, each such poll and each backoff is a Sleep, that is two
// coroutine switches. Here they run engine-side, as the steps of one
// sim.Thread.Spin, doing at each wake what the thread would have done:
// the same bucket charges, the same event at the same point of the same
// dispatch. The thread resumes only when a poll ends the wait, reads a
// zero, or is not a plain hit (mem.System.ReadHit), and then makes that
// poll itself with ReadSync. So a spin leaves every event, bucket and
// span of the loop it replaces unchanged.

// spinState is a processor's spin state: one scan for the flag spin of
// SpinWhileEqual and one for the zero scan of ScanZeros and NextZero, so
// that a flag spin never clobbers a zero scan in progress, each with its
// step bound once.
type spinState struct {
	flag, scan         pollScan
	flagStep, scanStep func() (sim.Time, bool)
	flagID             [1]int32    // the flag spin's one id
	flagWord           [1]mem.Addr // and the word it polls
}

// spins returns p's spin state, allocating it at p's first spin, so a
// processor that never spins carries none.
func (p *Proc) spins() *spinState {
	if p.spin == nil {
		sp := &spinState{}
		sp.flagStep = func() (sim.Time, bool) { return p.step(&sp.flag) }
		sp.scanStep = func() (sim.Time, bool) { return p.step(&sp.scan) }
		p.spin = sp
	}
	return p.spin
}

// pollScan is the state of a scan in progress: passes over ids that
// poll word[id] for each id until the poll ends id's wait, which it does
// when the word equals val if eq is set (iccg's counters), and when it
// differs from val otherwise (barrier flags).
type pollScan struct {
	ids      []int32    // this pass's ids; ids[:n] are kept for the next
	word     []mem.Addr // word[id] is the word polled for id
	val      float64
	eq       bool
	i, n     int  // ids[i] is polled next; n ids are kept so far
	progress bool // this pass has ended a wait
	backoff  int64
	min, max int64
	polled   bool  // the sleep in flight is ids[i]'s poll hit
	found    bool  // the spin ended a wait: done is its id
	done     int32 // the id whose wait ended
}

// SpinWhileEqual polls the word at a until it holds a value other than
// v. It makes exactly the polls and backoffs of
//
//	for p.ReadSync(a) == v {
//		p.SpinCycles(backoff)
//		if backoff < maxBackoff {
//			backoff *= 2
//		}
//	}
//
// but the polls that are plain hits, and the backoffs around them, do
// not resume the thread: it is a scan of the one word.
func (p *Proc) SpinWhileEqual(a mem.Addr, v float64, backoff, maxBackoff int64) {
	sp := p.spins()
	sp.flagWord[0] = a
	sp.flag = pollScan{ids: sp.flagID[:], word: sp.flagWord[:], val: v, backoff: backoff, min: backoff, max: maxBackoff}
	p.next(&sp.flag, sp.flagStep)
}

// ScanZeros starts a zero scan over ids, for NextZero to run. The scan
// takes ids, which it reorders in place, and polls word[id] for each id.
func (p *Proc) ScanZeros(ids []int32, word []mem.Addr, backoff, maxBackoff int64) {
	p.spins().scan = pollScan{ids: ids, word: word, eq: true, backoff: backoff, min: backoff, max: maxBackoff}
}

// NextZero continues the zero scan until a poll reads zero and returns
// that poll's id, which leaves the scan; it returns false once no id is
// left. Over the calls until then it makes exactly the polls and
// backoffs of the loop
//
//	for len(ids) > 0 {
//		progress := false
//		out := ids[:0]
//		for _, id := range ids {
//			if p.ReadSync(word[id]) != 0 {
//				out = append(out, id)
//				continue
//			}
//			progress = true
//			// NextZero returns id here; the caller handles it.
//		}
//		ids = out
//		if !progress {
//			p.SpinCycles(backoff)
//			if backoff < maxBackoff {
//				backoff *= 2
//			}
//		} else {
//			backoff = initial backoff
//		}
//	}
//
// but the polls that are plain hits and read nonzero, and the backoffs
// between passes, do not resume the thread.
func (p *Proc) NextZero() (int32, bool) {
	return p.next(&p.spin.scan, p.spin.scanStep)
}

// next continues scan s, whose bound step is step, until a poll ends an
// id's wait and returns that id, which leaves the scan; it returns false
// once no id is left.
func (p *Proc) next(s *pollScan, step func() (sim.Time, bool)) (int32, bool) {
	for {
		d, sleep := p.scanNext(s)
		if sleep {
			p.th.Spin(d, step)
			if s.found {
				s.found = false
				return s.done, true
			}
			// Resumed at a poll that is not a plain hit: loop to make it.
			continue
		}
		if len(s.ids) == 0 {
			*s = pollScan{} // hold nothing of the caller's
			return 0, false
		}
		// ids[i]'s poll is not a plain hit: the thread makes it itself.
		if s.take(p.ReadSync(s.word[s.ids[s.i]])) {
			return s.done, true
		}
	}
}

// step is a scan's step, run at the end of each sleep.
func (p *Proc) step(s *pollScan) (sim.Time, bool) {
	if s.polled {
		// ids[i]'s poll hit ended: its load reads the word now.
		s.polled = false
		if s.take(p.M.Store.Peek(s.word[s.ids[s.i]])) {
			s.found = true
			return 0, false
		}
	}
	return p.scanNext(s)
}

// scanNext moves scan s to its next poll. At the end of a pass it starts
// the next one, after a backoff if the pass ended no wait; then it
// probes ids[i]'s word. It returns the sleep to take, or false when the
// scan is over or ids[i]'s poll is not a plain hit.
func (p *Proc) scanNext(s *pollScan) (sim.Time, bool) {
	if s.i == len(s.ids) {
		s.ids, s.i, s.n = s.ids[:s.n], 0, 0
		if len(s.ids) == 0 {
			return 0, false
		}
		if !s.progress {
			// The wake polls ids[0].
			return p.chargeBackoff(&s.backoff, s.max), true
		}
		s.progress = false
		s.backoff = s.min
	}
	d, hit := p.M.Mem.ReadHit(p.ID, s.word[s.ids[s.i]], &p.BD)
	s.polled = hit
	return d, hit
}

// take files the value v read by ids[i]'s poll and reports whether it
// ended the id's wait, in which case the id leaves the scan as s.done.
func (s *pollScan) take(v float64) bool {
	id := s.ids[s.i]
	s.i++
	if (v == s.val) == s.eq {
		s.progress = true
		s.done = id
		return true
	}
	s.ids[s.n] = id
	s.n++
	return false
}

// chargeBackoff charges a SpinCycles backoff of *backoff cycles to
// synchronization, doubles *backoff while it is below max, and returns
// the backoff's duration.
func (p *Proc) chargeBackoff(backoff *int64, max int64) sim.Time {
	d := p.M.Clk.Cycles(*backoff)
	p.BD.Add(stats.BucketSync, d)
	if *backoff < max {
		*backoff *= 2
	}
	return d
}
