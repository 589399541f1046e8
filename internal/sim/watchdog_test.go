package sim

import (
	"slices"
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
	// Both stay queued, 1 us in the wheel and 1 ms in the heap past its
	// horizon, and the dump must count and list both.
	eng.At(1*Millisecond, func() {})
	eng.At(1*Microsecond, func() {})
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
		if se.Pending != 2 {
			t.Errorf("Pending = %d, want 2", se.Pending)
		}
		if want := []Time{Microsecond, Millisecond}; !slices.Equal(se.NextEvents, want) {
			t.Errorf("NextEvents = %v, want %v", se.NextEvents, want)
		}
	}()
	eng.Run()
	t.Fatal("Run returned; want event-limit panic")
}

// TestDeadlinePanicsWithDiagnostic pins the deadline dump, once with the
// sleeping thread's wake alone in the heap, past the wheel's horizon,
// and once with events in both stores: the check must read the earlier
// of the wheel's head and the heap's root, whichever store holds it.
func TestDeadlinePanicsWithDiagnostic(t *testing.T) {
	for _, c := range []struct {
		name   string
		events []Time
		heaped int // events of events that go to the heap
		want   string
		next   []Time
	}{
		{
			name: "wake past the horizon",
			want: "sim: deadline at t=0ps after 1 events (deadline 1.000us, next event at 1.000ms): " +
				"1 blocked thread(s), 1 pending event(s)",
			next: []Time{Millisecond},
		},
		{
			// 405 ns and 402 ns share a wheel slot, so 402 ns, earlier
			// than the slot's tail, goes to the heap; so does 5.006 us
			// behind 5.008 us. Once 402 ns has run, the heap's root lies
			// past the deadline while the wheel still holds 405 ns and
			// 500 ns before it.
			name:   "both stores",
			events: []Time{405 * Nanosecond, 402 * Nanosecond, 500 * Nanosecond, 5008 * Nanosecond, 5006 * Nanosecond},
			heaped: 2,
			want: "sim: deadline at t=500.000ns after 4 events (deadline 1.000us, next event at 5.006us): " +
				"1 blocked thread(s), 3 pending event(s)",
			next: []Time{5006 * Nanosecond, 5008 * Nanosecond, Millisecond},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := NewEngine()
			eng.Spawn("slow", 0, func(th *Thread) {
				th.SetWaitReason("long-sleep", 0)
				th.Sleep(1 * Millisecond)
			})
			for _, at := range c.events {
				eng.At(at, func() {})
			}
			if len(eng.heap) != c.heaped {
				t.Fatalf("heap holds %d events, want %d", len(eng.heap), c.heaped)
			}
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
				// The engine stops at its last event, short of the
				// deadline, so the dump names the deadline and the event
				// beyond it.
				first, _, _ := strings.Cut(se.Error(), "\n")
				if first != c.want {
					t.Errorf("dump first line:\n%s\nwant:\n%s", first, c.want)
				}
				if !slices.Equal(se.NextEvents, c.next) {
					t.Errorf("NextEvents = %v, want %v", se.NextEvents, c.next)
				}
			}()
			eng.Run()
			t.Fatal("Run returned; want deadline panic")
		})
	}
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

// TestDiagnoseBoundsNextEvents checks that a dump counts every queued
// event and lists the soonest few in order, across both stores: 2, 3
// and 4 ns join wheel slot 0, 1 ns is earlier than that slot's tail and
// goes to the heap, and so does 20 us, past the wheel's horizon.
func TestDiagnoseBoundsNextEvents(t *testing.T) {
	eng := NewEngine()
	for _, at := range []Time{2, 1, 20000, 3, 4, 8000, 7000, 6000} {
		eng.At(at*Nanosecond, func() {})
	}
	if len(eng.heap) != 2 || eng.words == 0 {
		t.Fatalf("heap holds %d events; want 1 ns and 20 us there, the rest in the wheel", len(eng.heap))
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
