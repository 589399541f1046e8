package obs

import (
	"fmt"
	"slices"
)

// ringChunk is how many entries a Ring allocates at a time. A ring
// allocates its capacity chunk by chunk as entries arrive, so a run
// costs what it records, not what its ring could hold. Growing by
// doubling would instead allocate up to twice the entries a run records.
const ringChunk = 4096

// Ring is a fixed-capacity buffer that retains the last entries added.
// It is the one bounded ring behind every observation stream: protocol
// events (Machine.Trace), thread-state spans (Machine.Spans) and the
// critical-path recorder's causal edges. Not safe for concurrent use —
// the simulator is single-threaded by construction.
type Ring[T any] struct {
	// chunks hold slots [i*ringChunk, (i+1)*ringChunk) each; the last
	// one ends at the capacity. Add fills every slot in turn, appending
	// a chunk when it reaches one not yet allocated, then overwrites the
	// oldest.
	chunks   [][]T
	capacity int
	total    int // entries ever added
}

// NewRing creates a ring retaining the last capacity entries. A
// non-positive capacity panics: such a ring could retain nothing.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("obs: non-positive ring capacity %d", capacity))
	}
	return &Ring[T]{capacity: capacity}
}

// Add records v, evicting the oldest entry when the ring is full.
func (r *Ring[T]) Add(v T) {
	slot := r.total % r.capacity
	c := slot / ringChunk
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, make([]T, min(ringChunk, r.capacity-slot)))
	}
	r.chunks[c][slot%ringChunk] = v
	r.total++
}

// Total reports how many entries were added, including evicted ones.
func (r *Ring[T]) Total() int64 { return int64(r.total) }

// Items returns a copy of the retained entries, oldest first.
func (r *Ring[T]) Items() []T { return slices.Concat(r.parts()...) }

// parts returns the retained entries in place, oldest first, as runs of
// consecutive slots. Each aliases one of the ring's chunks.
func (r *Ring[T]) parts() [][]T {
	var parts [][]T
	// Entry i, counted from the first Add, sits in slot i % capacity.
	for i := max(r.total-r.capacity, 0); i < r.total; {
		slot := i % r.capacity
		part := r.chunks[slot/ringChunk][slot%ringChunk:]
		part = part[:min(len(part), r.total-i)]
		parts = append(parts, part)
		i += len(part)
	}
	return parts
}
