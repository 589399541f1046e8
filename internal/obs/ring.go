package obs

import "fmt"

// Ring is a fixed-capacity buffer that retains the last entries added.
// It is the one bounded ring behind every observation stream: protocol
// events (Machine.Trace), thread-state spans (Machine.Spans) and the
// critical-path recorder's causal edges. Not safe for concurrent use —
// the simulator is single-threaded by construction.
type Ring[T any] struct {
	buf   []T // Add fills every slot in turn, then overwrites the oldest
	total int // entries ever added
}

// NewRing creates a ring retaining the last capacity entries. A
// non-positive capacity panics: such a ring could retain nothing.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("obs: non-positive ring capacity %d", capacity))
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Add records v, evicting the oldest entry when the ring is full.
func (r *Ring[T]) Add(v T) {
	slot := r.total % cap(r.buf)
	r.buf[slot] = v
	r.total++
}

// Total reports how many entries were added, including evicted ones.
func (r *Ring[T]) Total() int64 { return int64(r.total) }

// Items returns a copy of the retained entries, oldest first.
func (r *Ring[T]) Items() []T {
	if r.total < cap(r.buf) {
		return append([]T(nil), r.buf[:r.total]...)
	}
	oldest := r.total % cap(r.buf)
	return append(append(make([]T, 0, cap(r.buf)), r.buf[oldest:]...), r.buf[:oldest]...)
}
