package sim

import "fmt"

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

// event is a scheduled callback. Events are stored by value inside the
// engine's heap slab, so scheduling one costs no heap allocation beyond
// the caller's closure (and occasional slab growth, amortized away by the
// preallocated backing array).
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
}

// initialHeapCap is the event slab's starting capacity. A simulation
// schedules millions of events; starting at a few thousand makes slab
// growth a one-off cost instead of a steady-state one, while a bare
// engine (clock tests, microbenchmarks) stays cheap.
const initialHeapCap = 4096

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// events is a binary min-heap ordered by (at, seq), stored by value:
	// the slice is the slab, there are no per-event allocations and no
	// interface boxing (unlike container/heap). (at, seq) is a total
	// order — seq is unique — so dispatch order is independent of the
	// heap's treatment of equal elements.
	events []event

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
	return &Engine{events: make([]event, 0, initialHeapCap)}
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
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d picoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// less orders heap slots by (at, seq).
func (e *Engine) less(i, j int) bool {
	a, b := &e.events[i], &e.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the heap (sift-up).
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift-down). The vacated slab
// slot is zeroed so the callback closure can be collected.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	e.events = h[:n]
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
		e.events[i], e.events[min] = e.events[min], e.events[i]
		i = min
	}
	return top
}

// Run executes events in time order until the queue is empty. It
// returns the final simulated time.
func (e *Engine) Run() Time {
	for len(e.events) > 0 {
		if e.pastDeadline() {
			panic(e.Diagnose(StallDeadline))
		}
		e.step()
	}
	return e.now
}

func (e *Engine) step() {
	ev := e.pop()
	e.now = ev.at
	e.dispatched++
	if e.limit != 0 && e.dispatched > e.limit {
		panic(e.Diagnose(StallEventLimit))
	}
	ev.fn()
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }
