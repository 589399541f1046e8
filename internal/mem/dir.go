package mem

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxNodes is the largest machine the directory can track sharers for:
// the sharer bitset is a fixed-size array (pure value semantics — no
// aliasing between directory entries or snapshots taken by in-flight
// invalidation rounds), sized for the scale-out geometries (32-512
// nodes; Alewife and every Table 1 machine has 32).
const MaxNodes = 512

// sharerSet is a bitset of node ids, capacity MaxNodes. It is a value
// type: copies (e.g. the sharer snapshot an invalidation round walks
// while the live entry is rewritten) never alias.
type sharerSet [MaxNodes / 64]uint64

func (s *sharerSet) has(n int) bool { return s[n>>6]&(1<<uint(n&63)) != 0 }
func (s *sharerSet) add(n int)      { s[n>>6] |= 1 << uint(n&63) }
func (s *sharerSet) remove(n int)   { s[n>>6] &^= 1 << uint(n&63) }

func (s *sharerSet) count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// forEach visits set node ids in ascending order (determinism: every
// invalidation fan-out walks sharers in the same order).
func (s *sharerSet) forEach(f func(int)) {
	for wi, w := range s {
		for w != 0 {
			n := bits.TrailingZeros64(w)
			w &^= 1 << uint(n)
			f(wi<<6 | n)
		}
	}
}

// String renders the set as a node-id list for diagnostics.
func (s sharerSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.forEach(func(n int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", n)
	})
	b.WriteByte('}')
	return b.String()
}

// Directory states for a line at its home node.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirModified
)

// dirEntry is the home-side directory record for one line. Entries are
// created on first touch; absence means dirUncached with no sharers.
type dirEntry struct {
	state   dirState
	owner   int
	sharers sharerSet

	// busy serializes multi-message transactions (invalidation rounds,
	// owner fetches). Requests arriving while busy queue FIFO.
	busy  bool
	queue []*txn

	// modGen counts Modified-ownership grants for this line. The grant
	// reply carries the value to the new owner's cache, and an eviction
	// write-back echoes it back, so home can recognize a stale
	// write-back (one overtaken by the evictor's re-acquisition) from
	// home-side state alone, without consulting the evictor's cache.
	modGen uint64
}

// directory is one node's home directory.
type directory struct {
	entries map[Addr]*dirEntry
}

func newDirectory() *directory {
	return &directory{entries: make(map[Addr]*dirEntry)}
}

func (d *directory) entry(line Addr) *dirEntry {
	e := d.entries[line]
	if e == nil {
		e = &dirEntry{state: dirUncached, owner: -1}
		d.entries[line] = e
	}
	return e
}
