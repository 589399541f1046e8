package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point in simulated time, in picoseconds. The zero Time is the
// beginning of the simulation.
type Time int64

// Common durations expressed in Time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
)

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		//lint:allow simlint/intmath duration formatting for humans; never feeds event times
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		//lint:allow simlint/intmath duration formatting for humans; never feeds event times
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		//lint:allow simlint/intmath duration formatting for humans; never feeds event times
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// event is a scheduled callback. Events are stored by value, in a wheel
// slot's list or in the heap behind the wheel, so scheduling one costs no
// heap allocation beyond the caller's closure (and occasional growth of
// the node slab or the heap, which reuse their space for the rest of the
// run).
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
}

// before orders events by (at, seq). seq is unique, so this is a total
// order: dispatch order depends on neither store's treatment of ties.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The timing wheel: wheelSlots slots of 1<<slotShift ps (8.2 ns) each
// cover the next 8.4 µs of simulated time. Slot i holds the events whose
// time shifted right by slotShift is congruent to i modulo wheelSlots;
// since every wheel event lies less than wheelSlots slots past Now's,
// each index names one slot of absolute time. The width and count were
// chosen by measurement (EXPERIMENTS.md, "A timing wheel in front of the
// event heap").
const (
	slotShift  = 13
	wheelSlots = 1024
)

// node is an event in a wheel slot's FIFO list, linked by its index in
// the node slab; index 0 is never used, so 0 ends a list.
type node struct {
	event
	next int32
}

// slot is a wheel slot's list: the node indices of its head and tail,
// both 0 when it is empty.
type slot struct{ head, tail int32 }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// The event queue is a timing wheel in front of a binary heap, after
	// Brown's calendar queue (CACM 1988). An event joins its wheel slot
	// only at the tail, when it is not earlier than the tail, so every
	// slot's list stays in (at, seq) order and scheduling it costs O(1).
	// Every other event, one earlier than its slot's tail or at or past
	// the wheel's horizon, goes into the heap. Dispatch takes the
	// earlier, under (at, seq), of the first occupied slot's head and the
	// heap root, so the order is exactly that of one heap.
	slots [wheelSlots]slot
	// occupied has bit i set while slot i holds an event, and words bit
	// w while occupied[w] is nonzero: the first occupied slot is two
	// trailing-zero counts away.
	occupied [wheelSlots / 64]uint64
	words    uint64
	// nodes is the slab the slot lists live in; free heads the list of
	// its unused nodes, linked through next (0 if none).
	nodes []node
	free  int32
	// heap is a binary min-heap ordered by (at, seq), stored by value:
	// the slice is the slab, with no per-event allocation and no
	// interface boxing (unlike container/heap).
	heap []event

	// dispatched counts events executed; useful for progress limits.
	dispatched uint64
	// limit, if nonzero, aborts Run after this many events (runaway guard).
	limit uint64
	// deadline, if nonzero, aborts Run once the next event would fire
	// after it while spawned threads are still unfinished (see SetDeadline).
	deadline Time

	// threads registers every spawned thread, for watchdog diagnostics
	// (blocked-thread dumps, the deadline check).
	threads []*Thread

	// spanObs, when non-nil, observes every completed thread pause
	// interval (see SetSpanObserver). Purely passive: it runs after the
	// thread has already resumed and must not mutate simulation state.
	spanObs func(th *Thread, start, end Time, blocked bool, reason string, arg int64)
}

// SetSpanObserver installs fn to be called once per completed thread
// pause with the interval [start, end], whether the pause was a blocked
// wait (no wake armed at pause time) or a self-armed sleep, and the wait
// reason label active during the pause. The observability layer uses it
// to record thread-state spans for timeline export; nil disables
// observation (the default, costing one nil check per pause).
func (e *Engine) SetSpanObserver(fn func(th *Thread, start, end Time, blocked bool, reason string, arg int64)) {
	e.spanObs = fn
}

// NewEngine returns an engine with simulated time at zero and an empty
// event queue.
func NewEngine() *Engine {
	return &Engine{nodes: make([]node, 1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Dispatched reports how many events have executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// SetEventLimit aborts Run after n dispatched events by panicking with a
// *StallError diagnostic (queue depth, upcoming event times, blocked
// threads). Zero (the default) means no limit. It exists to turn
// accidental infinite simulations into immediate, debuggable failures.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// At schedules fn to run at absolute time t. Scheduling an event in the
// past (t < Now) panics: it indicates a model bug that would silently
// corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: at %v, now %v", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	if s := t >> slotShift; s-e.now>>slotShift < wheelSlots {
		i := int(s & (wheelSlots - 1))
		sl := &e.slots[i]
		switch {
		case sl.tail == 0:
			n := e.node(ev)
			sl.head, sl.tail = n, n
			e.occupied[i>>6] |= 1 << (i & 63)
			e.words |= 1 << (i >> 6)
			return
		case e.nodes[sl.tail].at <= t:
			n := e.node(ev)
			e.nodes[sl.tail].next = n
			sl.tail = n
			return
		}
	}
	e.push(ev)
}

// After schedules fn to run d picoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// node stores ev in an unused slab node and returns its index.
func (e *Engine) node(ev event) int32 {
	n := e.free
	if n == 0 {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{event: ev})
		return n
	}
	e.free = e.nodes[n].next
	e.nodes[n] = node{event: ev}
	return n
}

// firstSlot returns the index of the first occupied slot at or after
// Now's, wrapping past the last slot. The wheel must hold an event.
func (e *Engine) firstSlot() int {
	i := int(e.now>>slotShift) & (wheelSlots - 1)
	w := i >> 6
	if m := e.occupied[w] & (^uint64(0) << (i & 63)); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	// The words past w, else wrap: word w then holds only slots before i.
	ws := e.words & (^uint64(0) << (w + 1))
	if ws == 0 {
		ws = e.words
	}
	w = bits.TrailingZeros64(ws)
	return w<<6 | bits.TrailingZeros64(e.occupied[w])
}

// unlink removes slot i's head. The vacated node drops its callback, so
// the closure can be collected, and joins the free list.
func (e *Engine) unlink(i int) {
	sl := &e.slots[i]
	n := sl.head
	nd := &e.nodes[n]
	sl.head = nd.next
	nd.fn, nd.next = nil, e.free
	e.free = n
	if sl.head == 0 {
		sl.tail = 0
		w := i >> 6
		e.occupied[w] &^= 1 << (i & 63)
		if e.occupied[w] == 0 {
			e.words &^= 1 << w
		}
	}
}

// less orders heap entries by (at, seq).
func (e *Engine) less(i, j int) bool { return e.heap[i].before(&e.heap[j]) }

// push inserts ev into the heap (sift-up).
func (e *Engine) push(ev event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// pop removes the heap's root (sift-down). The vacated entry is zeroed
// so the callback closure can be collected.
func (e *Engine) pop() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	e.heap = h[:n]
	// Sift the relocated last element down to its place.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && e.less(l, min) {
			min = l
		}
		if r < n && e.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
}

// Run executes events in time order until the queue is empty. It
// returns the final simulated time.
func (e *Engine) Run() Time {
	for {
		// The next event is the earlier of the first occupied slot's head
		// and the heap root; i is its slot, or -1 for the root.
		var ev *event
		i := -1
		switch {
		case e.words != 0:
			i = e.firstSlot()
			ev = &e.nodes[e.slots[i].head].event
			if len(e.heap) > 0 && e.heap[0].before(ev) {
				ev, i = &e.heap[0], -1
			}
		case len(e.heap) > 0:
			ev = &e.heap[0]
		default:
			return e.now
		}
		if e.pastDeadline(ev.at) {
			panic(e.Diagnose(StallDeadline))
		}
		fn := ev.fn
		e.now = ev.at
		if i < 0 {
			e.pop()
		} else {
			e.unlink(i)
		}
		e.dispatched++
		if e.limit != 0 && e.dispatched > e.limit {
			panic(e.Diagnose(StallEventLimit))
		}
		fn()
	}
}
