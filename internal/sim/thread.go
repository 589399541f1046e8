//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// ThreadState describes the lifecycle of a simulated thread.
type ThreadState int

const (
	// ThreadNew has been spawned but its start event has not fired yet.
	ThreadNew ThreadState = iota
	// ThreadRunning currently holds control (its body is executing).
	ThreadRunning
	// ThreadPaused has yielded and waits for a Wake.
	ThreadPaused
	// ThreadDone has returned from its body.
	ThreadDone
)

func (s ThreadState) String() string {
	switch s {
	case ThreadNew:
		return "new"
	case ThreadRunning:
		return "running"
	case ThreadPaused:
		return "paused"
	case ThreadDone:
		return "done"
	}
	return fmt.Sprintf("ThreadState(%d)", int(s))
}

// Thread is a cooperatively scheduled simulated thread. A thread's body
// runs as a coroutine (iter.Pull) driven by the engine, so control is
// handed off strictly: while the body executes, the engine (and every
// other thread) is suspended, so the body may freely read and mutate
// simulation state and schedule events. A body gives up control only
// through Pause (or by returning).
//
// A paused thread is resumed by exactly one pending Wake; issuing a second
// Wake for an already-woken thread is a model bug and panics.
type Thread struct {
	eng   *Engine
	name  string
	state ThreadState

	// The body's coroutine: next runs it until its next Pause (engine
	// side), yield returns control to the engine (thread side). Both are
	// dropped when the body finishes, so a finished thread does not keep
	// the body's closure reachable.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// wake is th.dispatch's method value and spinWake th.spinDispatch's,
	// built once in Spawn so that scheduling a wake allocates nothing.
	wake     func()
	spinWake func()
	// step is the engine-side step of the Spin in progress; nil otherwise.
	step func() (Time, bool)

	wakePending bool

	// Wait-reason bookkeeping for watchdog dumps. Two plain stores per
	// pause keep the hot path allocation-free; formatting happens only
	// when a diagnostic is produced.
	waitReason   string
	waitArg      int64
	blockedSince Time
}

// Spawn creates a thread named name whose body starts at absolute time at.
// The body runs to completion unless it pauses; Spawn itself returns
// immediately (the thread first runs when the engine reaches time at).
func (e *Engine) Spawn(name string, at Time, body func(*Thread)) *Thread {
	th := &Thread{eng: e, name: name, state: ThreadNew}
	// The coroutine's stop function is never called: after stop, yield
	// returns at once, so a body would run on past its Pause calls with
	// no engine in control. A crashed run abandons its paused coroutines.
	th.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		th.yield = yield
		defer func() {
			th.state = ThreadDone
			th.next, th.yield = nil, nil
			if r := recover(); r != nil {
				// iter.Pull re-raises this on the engine's side of next.
				panic(fmt.Sprintf("sim: thread %q panicked: %v", th.name, r))
			}
		}()
		body(th)
	})
	th.wake, th.spinWake = th.dispatch, th.spinDispatch
	th.wakePending = true
	e.threads = append(e.threads, th)
	e.At(at, th.wake)
	return th
}

// SpawnNow is Spawn at the current simulated time.
func (e *Engine) SpawnNow(name string, body func(*Thread)) *Thread {
	return e.Spawn(name, e.now, body)
}

// dispatch transfers control to the thread and returns when it pauses or
// finishes. It runs in engine context (as an event callback). A body
// panic resurfaces here, on the engine's side.
func (th *Thread) dispatch() {
	if th.state == ThreadDone {
		panic(fmt.Sprintf("sim: wake of finished thread %q", th.name))
	}
	th.wakePending = false
	th.state = ThreadRunning
	th.next()
}

// Engine returns the engine this thread belongs to.
func (th *Thread) Engine() *Engine { return th.eng }

// Name returns the thread's name.
func (th *Thread) Name() string { return th.name }

// Now returns the current simulated time.
func (th *Thread) Now() Time { return th.eng.Now() }

// Pause yields control until a Wake fires. It must only be called from the
// thread's own body. The caller must arrange (before pausing or from
// another context afterwards) exactly one WakeAt/WakeAfter.
func (th *Thread) Pause() {
	if th.state != ThreadRunning {
		panic(fmt.Sprintf("sim: Pause on %s thread %q", th.state, th.name))
	}
	th.state = ThreadPaused
	th.blockedSince = th.eng.now
	armed := th.wakePending
	th.yield(struct{}{})
	th.state = ThreadRunning
	th.resumed(armed)
}

// resumed accounts a pause that ends now: the span observer sees it,
// blocked unless it was a self-armed sleep (armed), and the wait reason
// is cleared.
func (th *Thread) resumed(armed bool) {
	if obs := th.eng.spanObs; obs != nil {
		obs(th, th.blockedSince, th.eng.now, !armed, th.waitReason, th.waitArg)
	}
	th.waitReason, th.waitArg = "", 0
}

// SetWaitReason labels the cause of the thread's next Pause for watchdog
// diagnostics ("mem-miss", line number; "await-message", node; ...). The
// label is cleared when the pause ends, by a resume or by a wake that a
// Spin step absorbs. arg is an optional detail rendered alongside the
// reason; pass 0 when meaningless.
func (th *Thread) SetWaitReason(reason string, arg int64) {
	th.waitReason, th.waitArg = reason, arg
}

// formatWaitReason renders the wait label for a diagnostic dump.
func (th *Thread) formatWaitReason() string {
	if th.waitReason == "" {
		return ""
	}
	if th.waitArg == 0 {
		return th.waitReason
	}
	return fmt.Sprintf("%s %d", th.waitReason, th.waitArg)
}

// WakeAt schedules the thread to resume at absolute time t. It may be
// called from any context that currently holds control (the engine or
// another thread), including the thread's own body immediately before
// Pause. Exactly one wake may be pending at a time.
func (th *Thread) WakeAt(t Time) { th.arm(t, th.wake) }

// arm schedules the thread's one pending wake: fn at time t.
func (th *Thread) arm(t Time, fn func()) {
	if th.state == ThreadDone {
		panic(fmt.Sprintf("sim: WakeAt on finished thread %q", th.name))
	}
	if th.wakePending {
		panic(fmt.Sprintf("sim: duplicate wake for thread %q", th.name))
	}
	th.wakePending = true
	th.eng.At(t, fn)
}

// WakeAfter schedules the thread to resume d picoseconds from now.
func (th *Thread) WakeAfter(d Time) { th.WakeAt(th.eng.Now() + d) }

// Sleep pauses the thread for duration d of simulated time.
func (th *Thread) Sleep(d Time) {
	th.WakeAfter(d)
	th.Pause()
}

// Spin is a Sleep of d whose wakes run step in the engine's context
// instead of resuming the body. A step that returns (d, true) sleeps
// the thread again for d; one that returns false resumes the body
// inside the same dispatch, and Spin returns. Every wake a step absorbs
// is accounted exactly like the wake of a Sleep: the same event at the
// same point of its dispatch, one span-observer call with the same
// arguments, and the wait reason cleared. Only the two coroutine
// switches are saved. So a step that does what the body would have
// done between its sleeps, with the same bucket charges and the same
// events in the same order, leaves the simulation unchanged. A step
// runs in the engine's context, so it must not pause, and it must not
// wake its own thread. Bind it once (a method value the caller keeps),
// so that a spin allocates nothing. It has three users, all in package
// machine: the flag spin of Proc.SpinWhileEqual, the zero scan of
// Proc.NextZero, and the op runs of Proc.Do.
func (th *Thread) Spin(d Time, step func() (Time, bool)) {
	if th.state != ThreadRunning {
		panic(fmt.Sprintf("sim: Spin on %s thread %q", th.state, th.name))
	}
	th.step = step
	th.arm(th.eng.now+d, th.spinWake)
	th.state = ThreadPaused
	th.blockedSince = th.eng.now
	th.yield(struct{}{})
	// spinDispatch accounted the last wake before resuming the body.
	th.state = ThreadRunning
	th.step = nil
}

// spinDispatch is the event of a wake inside Spin. It accounts the
// sleep that just ended, as Pause would, then runs the step: the step
// either arms the next sleep, leaving the body parked, or ends the spin,
// and the body resumes here.
func (th *Thread) spinDispatch() {
	th.wakePending = false
	th.resumed(true)
	if d, again := th.step(); again {
		th.wakePending = true
		th.eng.At(th.eng.now+d, th.spinWake)
		th.blockedSince = th.eng.now
		return
	}
	th.dispatch()
}
