package mem

import (
	"fmt"
	"sort"
)

// Invariant checking for the directory protocol. Two strengths exist
// because the protocol's transient states are legal mid-run:
//
// Weak invariants hold at every instant, even with transactions in
// flight: a line has at most one Modified holder machine-wide, and a
// Modified holder is the directory's recorded owner unless the entry is
// mid-transaction (busy). Weak checks are safe to run anywhere.
//
// Strict invariants hold only at quiescence (barriers, end of run): no
// pending transactions or busy directory entries remain, a dirModified
// entry's owner actually holds the line Modified with a singleton sharer
// set, a dirUncached line is cached nowhere, and every Shared holder has
// its sharer bit set. Sharer bitsets are conservative: silent evictions
// of clean lines leave stale bits behind, so the bitset is a superset of
// the true holders, never a subset.

// InvariantError reports a coherence invariant violation. It carries
// every violation found in one sweep, not just the first.
type InvariantError struct {
	Violations []string
}

func (e *InvariantError) Error() string {
	if len(e.Violations) == 1 {
		return "mem: invariant violated: " + e.Violations[0]
	}
	s := fmt.Sprintf("mem: %d invariants violated:", len(e.Violations))
	for _, v := range e.Violations {
		s += "\n  " + v
	}
	return s
}

// holder records one cached copy of a line for the checker's sweep.
type holder struct {
	node int
	st   lineState
}

// holders collects every cached copy (cache proper and prefetch buffer)
// of every line, keyed by line number. Only allocated cache pages are
// walked: a missing page holds no valid frame.
func (s *System) holders() map[Addr][]holder {
	m := make(map[Addr][]holder)
	for node, nm := range s.nodes {
		for _, pg := range nm.cache.pages {
			if pg == nil {
				continue
			}
			for i := range pg {
				fr := &pg[i]
				if fr.state != lineInvalid {
					m[fr.tag] = append(m[fr.tag], holder{node: node, st: fr.state})
				}
			}
		}
		for i := range nm.cache.pf {
			pf := &nm.cache.pf[i]
			if pf.used {
				m[pf.tag] = append(m[pf.tag], holder{node: node, st: pf.state})
			}
		}
	}
	return m
}

// CheckInvariants sweeps every cache, prefetch buffer and directory and
// returns an *InvariantError describing all violations, or nil. With
// strict=false only the anytime invariants are checked; strict=true adds
// the quiescence-only checks and must be called when no transactions are
// in flight (barriers, end of run).
func (s *System) CheckInvariants(strict bool) error {
	var bad []string
	hold := s.holders()

	// Deterministic sweep order for stable error messages.
	lines := make([]Addr, 0, len(hold))
	for l := range hold {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })

	for _, line := range lines {
		hs := hold[line]
		home := s.lineHome(line)
		e := s.nodes[home].dir.entries[line]

		var modified []int
		for _, h := range hs {
			if h.st == lineModified {
				modified = append(modified, h.node)
			}
		}
		if len(modified) > 1 {
			bad = append(bad, fmt.Sprintf("line %d has %d Modified holders: %v", line, len(modified), modified))
		}
		for _, owner := range modified {
			if e == nil {
				bad = append(bad, fmt.Sprintf("line %d Modified at node %d but home %d has no directory entry", line, owner, home))
				continue
			}
			if e.busy && !strict {
				continue // ownership in transit; legal mid-transaction
			}
			if e.state != dirModified || e.owner != owner {
				bad = append(bad, fmt.Sprintf("line %d Modified at node %d but home %d directory says state=%d owner=%d",
					line, owner, home, e.state, e.owner))
			}
		}

		if !strict {
			continue
		}
		// Quiescence-only checks per line.
		if e == nil || e.state == dirUncached {
			bad = append(bad, fmt.Sprintf("line %d cached at %d node(s) but home %d directory says uncached", line, len(hs), home))
			continue
		}
		for _, h := range hs {
			if h.st == lineShared && !e.sharers.has(h.node) {
				bad = append(bad, fmt.Sprintf("line %d Shared at node %d but home %d sharer bitset %v lacks it",
					line, h.node, home, e.sharers))
			}
		}
		if e.state == dirModified {
			if len(modified) != 1 || modified[0] != e.owner {
				bad = append(bad, fmt.Sprintf("line %d: home %d directory says Modified owner=%d but holders are %+v",
					line, home, e.owner, hs))
			}
			if e.sharers.count() != 1 || !e.sharers.has(e.owner) {
				bad = append(bad, fmt.Sprintf("line %d: Modified owner=%d but sharer bitset %v is not the singleton owner",
					line, e.owner, e.sharers))
			}
		}
	}

	if strict {
		for node, nm := range s.nodes {
			for line, t := range nm.pending {
				//lint:allow simlint/maporder bad is sort.Strings-ed before InvariantError is built, so emission order is irrelevant
				bad = append(bad, fmt.Sprintf("node %d has a pending transaction for line %d (write=%v, granted=%v) at quiescence",
					node, line, t.write, t.granted))
			}
			for line, e := range nm.dir.entries {
				if e.busy || len(e.queue) > 0 {
					//lint:allow simlint/maporder bad is sort.Strings-ed before InvariantError is built, so emission order is irrelevant
					bad = append(bad, fmt.Sprintf("home %d directory entry for line %d still busy (queue depth %d) at quiescence",
						node, line, len(e.queue)))
				}
				if e.state == dirModified {
					if _, ok := hold[line]; !ok {
						//lint:allow simlint/maporder bad is sort.Strings-ed before InvariantError is built, so emission order is irrelevant
						bad = append(bad, fmt.Sprintf("home %d directory says line %d Modified at owner %d but no node caches it (orphaned entry)",
							node, line, e.owner))
					}
				}
			}
			if nm.rcSt != nil {
				if nm.rcSt.outstanding != 0 || len(nm.rcSt.pending) != 0 {
					bad = append(bad, fmt.Sprintf("node %d write buffer not drained at quiescence: %d outstanding, %d pending values",
						node, nm.rcSt.outstanding, len(nm.rcSt.pending)))
				}
			}
		}
	}

	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return &InvariantError{Violations: bad}
}

// BusyDump lists directory entries currently serving a transaction (with
// their queue depths) and nodes with pending miss transactions, at most
// max entries (0 = no limit). Used by watchdog diagnostics when a run
// stalls mid-protocol.
func (s *System) BusyDump(max int) []string {
	var out []string
	add := func(line string) bool {
		out = append(out, line)
		return max > 0 && len(out) >= max
	}
	for node, nm := range s.nodes {
		// Deterministic order over map-keyed state.
		var ls []Addr
		for l, e := range nm.dir.entries {
			if e.busy || len(e.queue) > 0 {
				ls = append(ls, l)
			}
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		for _, l := range ls {
			e := nm.dir.entries[l]
			if add(fmt.Sprintf("home %d line %d busy (state=%d owner=%d sharers=%d queued=%d)",
				node, l, e.state, e.owner, e.sharers.count(), len(e.queue))) {
				return out
			}
		}
		ls = ls[:0]
		for l := range nm.pending {
			ls = append(ls, l)
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		for _, l := range ls {
			t := nm.pending[l]
			if add(fmt.Sprintf("node %d pending txn line %d (write=%v granted=%v waiters=%d)",
				node, l, t.write, t.granted, len(t.waiters))) {
				return out
			}
		}
	}
	return out
}
