package sim

import (
	"fmt"
	"sort"
	"strings"
)

// StallKind classifies a liveness failure.
type StallKind string

const (
	// StallDeadlock: the event queue drained while threads were still
	// paused with no wake scheduled — nothing can ever run them again.
	StallDeadlock StallKind = "deadlock"
	// StallEventLimit: the configured event limit was exceeded (a runaway
	// simulation making no application progress).
	StallEventLimit StallKind = "event-limit"
	// StallDeadline: simulated time would pass the configured deadline
	// with threads still blocked.
	StallDeadline StallKind = "deadline"
)

// BlockedThread describes one paused thread in a diagnostic dump.
type BlockedThread struct {
	Name   string
	Reason string // from Thread.SetWaitReason; "" if unset
	Since  Time   // when the thread last paused
}

// StallError is the watchdog's structured diagnostic: instead of a bare
// panic string, a failed run carries the engine state needed to debug it —
// blocked thread names and wait reasons, queue depth, upcoming event
// times, and free-form notes appended by higher layers (directory state,
// link occupancy, NI queues). It is delivered by panicking with the
// *StallError as the value; the sweep runner recovers it into a RunError.
type StallError struct {
	Kind       StallKind
	Now        Time // engine time: the last dispatched event
	Deadline   Time // the armed deadline (see SetDeadline); 0 if none
	Dispatched uint64
	Pending    int
	NextEvents []Time // times of the soonest few queued events
	Blocked    []BlockedThread
	Notes      []string // subsystem diagnostics appended by higher layers
}

// Error formats the full multi-line diagnostic dump.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at t=%v after %d events", e.Kind, e.Now, e.Dispatched)
	if e.Kind == StallDeadline && len(e.NextEvents) > 0 {
		// The engine stops short of the deadline, so name the deadline
		// and the event that lies beyond it.
		fmt.Fprintf(&b, " (deadline %v, next event at %v)", e.Deadline, e.NextEvents[0])
	}
	fmt.Fprintf(&b, ": %d blocked thread(s), %d pending event(s)", len(e.Blocked), e.Pending)
	for _, th := range e.Blocked {
		fmt.Fprintf(&b, "\n  blocked: %s", th.Name)
		if th.Reason != "" {
			fmt.Fprintf(&b, " (%s)", th.Reason)
		}
		fmt.Fprintf(&b, " since t=%v", th.Since)
	}
	if len(e.NextEvents) > 0 {
		fmt.Fprintf(&b, "\n  next events at:")
		for _, t := range e.NextEvents {
			fmt.Fprintf(&b, " %v", t)
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "\n  note: %s", n)
	}
	return b.String()
}

// maxDiagEvents bounds the upcoming-event times listed in a dump.
const maxDiagEvents = 4

// Diagnose captures the engine's current liveness state as a StallError
// of the given kind. It is cheap relative to any failure path and safe to
// call at any time.
func (e *Engine) Diagnose(kind StallKind) *StallError {
	d := &StallError{
		Kind:       kind,
		Now:        e.now,
		Deadline:   e.deadline,
		Dispatched: e.dispatched,
	}
	var times []Time
	for i := range e.heap {
		times = append(times, e.heap[i].at)
	}
	for i := range e.slots {
		for n := e.slots[i].head; n != 0; n = e.nodes[n].next {
			times = append(times, e.nodes[n].at)
		}
	}
	d.Pending = len(times)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(times) > maxDiagEvents {
		times = times[:maxDiagEvents]
	}
	d.NextEvents = times
	for _, th := range e.threads {
		if th.state != ThreadPaused {
			continue
		}
		reason := th.formatWaitReason()
		if th.wakePending {
			if reason != "" {
				reason += "; "
			}
			reason += "wake scheduled"
		}
		d.Blocked = append(d.Blocked, BlockedThread{
			Name:   th.name,
			Reason: reason,
			Since:  th.blockedSince,
		})
	}
	return d
}

// SetDeadline arms the no-forward-progress watchdog: if the next event
// would fire after t while any spawned thread has not finished, Run
// panics with a *StallError diagnostic instead of silently simulating
// past the deadline. Zero (the default) disables the deadline.
func (e *Engine) SetDeadline(t Time) { e.deadline = t }

// pastDeadline reports whether dispatching the next event, due at t,
// would violate the armed deadline.
func (e *Engine) pastDeadline(t Time) bool {
	if e.deadline <= 0 || t <= e.deadline {
		return false
	}
	for _, th := range e.threads {
		if th.state != ThreadDone {
			return true
		}
	}
	return false
}
