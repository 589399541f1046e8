package sim

import (
	"strings"
	"testing"
)

// TestDiagnoseDeadlockDump pins the deadlock dump machine.Run panics
// with when the queue drains before every thread finishes.
func TestDiagnoseDeadlockDump(t *testing.T) {
	eng := NewEngine()
	// Two threads pause forever with no wake scheduled: a deadlock once
	// the queue drains.
	eng.Spawn("consumer", 0, func(th *Thread) {
		th.SetWaitReason("await-message", 0)
		th.Pause()
	})
	eng.Spawn("producer", 10*Nanosecond, func(th *Thread) {
		th.SetWaitReason("mem-miss line", 42)
		th.Pause()
	})
	eng.Run()

	se := eng.Diagnose(StallDeadlock)
	if se.Kind != StallDeadlock {
		t.Errorf("Kind = %v, want %v", se.Kind, StallDeadlock)
	}
	if len(se.Blocked) != 2 {
		t.Fatalf("Blocked = %v, want both threads", se.Blocked)
	}
	if se.Blocked[0].Name != "consumer" || se.Blocked[1].Name != "producer" {
		t.Errorf("blocked names = %q, %q", se.Blocked[0].Name, se.Blocked[1].Name)
	}
	if se.Blocked[0].Reason != "await-message" {
		t.Errorf("consumer reason = %q, want await-message", se.Blocked[0].Reason)
	}
	if se.Blocked[1].Reason != "mem-miss line 42" {
		t.Errorf("producer reason = %q, want mem-miss line 42", se.Blocked[1].Reason)
	}
	if se.Blocked[1].Since != 10*Nanosecond {
		t.Errorf("producer blocked since %v, want 10ns", se.Blocked[1].Since)
	}
	msg := se.Error()
	for _, want := range []string{"deadlock", "consumer", "producer", "mem-miss line 42"} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump missing %q:\n%s", want, msg)
		}
	}
}

func TestEventLimitPanicsWithDiagnostic(t *testing.T) {
	eng := NewEngine()
	var tick func()
	tick = func() { eng.After(1*Nanosecond, tick) }
	eng.After(0, tick)
	eng.At(1*Millisecond, func() {}) // stays queued; must show in the dump
	eng.SetEventLimit(10)

	defer func() {
		r := recover()
		se, ok := r.(*StallError)
		if !ok {
			t.Fatalf("panic value %T (%v), want *StallError", r, r)
		}
		if se.Kind != StallEventLimit {
			t.Errorf("Kind = %v, want %v", se.Kind, StallEventLimit)
		}
		if se.Dispatched != 11 {
			t.Errorf("Dispatched = %d, want 11", se.Dispatched)
		}
		if len(se.NextEvents) == 0 {
			t.Error("diagnostic lists no upcoming events")
		}
	}()
	eng.Run()
	t.Fatal("Run returned; want event-limit panic")
}

func TestDeadlinePanicsWithDiagnostic(t *testing.T) {
	eng := NewEngine()
	eng.Spawn("slow", 0, func(th *Thread) {
		th.SetWaitReason("long-sleep", 0)
		th.Sleep(1 * Millisecond)
	})
	eng.SetDeadline(1 * Microsecond)

	defer func() {
		r := recover()
		se, ok := r.(*StallError)
		if !ok {
			t.Fatalf("panic value %T (%v), want *StallError", r, r)
		}
		if se.Kind != StallDeadline {
			t.Errorf("Kind = %v, want %v", se.Kind, StallDeadline)
		}
		if len(se.Blocked) != 1 || se.Blocked[0].Name != "slow" {
			t.Fatalf("Blocked = %+v, want the sleeping thread", se.Blocked)
		}
		if se.Blocked[0].Reason != "long-sleep; wake scheduled" {
			t.Errorf("Reason = %q, want wait reason plus pending wake", se.Blocked[0].Reason)
		}
		// The engine stops at its last event, short of the deadline, so
		// the dump names the deadline and the event beyond it.
		first, _, _ := strings.Cut(se.Error(), "\n")
		want := "sim: deadline at t=0ps after 1 events (deadline 1.000us, next event at 1.000ms): " +
			"1 blocked thread(s), 1 pending event(s)"
		if first != want {
			t.Errorf("dump first line:\n%s\nwant:\n%s", first, want)
		}
	}()
	eng.Run()
	t.Fatal("Run returned; want deadline panic")
}

func TestDeadlineAllowsCompletion(t *testing.T) {
	eng := NewEngine()
	done := false
	eng.Spawn("quick", 0, func(th *Thread) {
		th.Sleep(10 * Nanosecond)
		done = true
	})
	eng.SetDeadline(1 * Microsecond)
	eng.Run()
	if !done {
		t.Error("thread did not finish under an ample deadline")
	}
}

func TestDiagnoseBoundsNextEvents(t *testing.T) {
	eng := NewEngine()
	for i := 8; i >= 1; i-- {
		eng.At(Time(i)*Nanosecond, func() {})
	}
	se := eng.Diagnose(StallDeadlock)
	if len(se.NextEvents) != maxDiagEvents {
		t.Fatalf("NextEvents has %d entries, want %d", len(se.NextEvents), maxDiagEvents)
	}
	for i := 0; i < maxDiagEvents; i++ {
		if want := Time(i+1) * Nanosecond; se.NextEvents[i] != want {
			t.Errorf("NextEvents[%d] = %v, want %v (sorted ascending)", i, se.NextEvents[i], want)
		}
	}
	if se.Pending != 8 {
		t.Errorf("Pending = %d, want 8", se.Pending)
	}
}

func TestStallErrorNotesRendered(t *testing.T) {
	se := &StallError{Kind: StallDeadlock, Notes: []string{"mem: home 3 line 7 busy"}}
	if !strings.Contains(se.Error(), "note: mem: home 3 line 7 busy") {
		t.Errorf("notes not rendered:\n%s", se.Error())
	}
}
