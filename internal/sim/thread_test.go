package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestThreadRunsAtSpawnTime(t *testing.T) {
	e := NewEngine()
	var started Time = -1
	e.Spawn("t", 100, func(th *Thread) { started = th.Now() })
	e.Run()
	if started != 100 {
		t.Errorf("thread started at %d, want 100", started)
	}
}

func TestThreadSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("t", 0, func(th *Thread) {
		th.Sleep(250)
		wake = th.Now()
	})
	e.Run()
	if wake != 250 {
		t.Errorf("woke at %d, want 250", wake)
	}
}

func TestThreadsInterleaveDeterministically(t *testing.T) {
	// Two threads sleeping different amounts must interleave by time.
	run := func() []string {
		e := NewEngine()
		var trace []string
		e.Spawn("a", 0, func(th *Thread) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "a")
				th.Sleep(10)
			}
		})
		e.Spawn("b", 5, func(th *Thread) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "b")
				th.Sleep(10)
			}
		})
		e.Run()
		return trace
	}
	first := run()
	want := "ababab"
	if got := strings.Join(first, ""); got != want {
		t.Errorf("interleaving = %q, want %q", got, want)
	}
	// Determinism: identical across runs.
	for i := 0; i < 5; i++ {
		again := run()
		if strings.Join(again, "") != strings.Join(first, "") {
			t.Fatalf("nondeterministic interleaving: %v vs %v", again, first)
		}
	}
}

func TestThreadPauseAndExternalWake(t *testing.T) {
	e := NewEngine()
	var resumed Time
	th := e.Spawn("sleeper", 0, func(th *Thread) {
		th.Pause()
		resumed = th.Now()
	})
	e.At(40, func() { th.WakeAt(70) })
	e.Run()
	if resumed != 70 {
		t.Errorf("resumed at %d, want 70", resumed)
	}
	if th.state != ThreadDone {
		t.Errorf("state = %v, want done", th.state)
	}
}

func TestThreadWakeFromAnotherThread(t *testing.T) {
	e := NewEngine()
	var order []string
	var waiter *Thread
	waiter = e.Spawn("waiter", 0, func(th *Thread) {
		order = append(order, "wait")
		th.Pause()
		order = append(order, "woken")
	})
	e.Spawn("waker", 10, func(th *Thread) {
		order = append(order, "wake")
		waiter.WakeAfter(5)
	})
	e.Run()
	got := strings.Join(order, ",")
	if got != "wait,wake,woken" {
		t.Errorf("order = %q, want wait,wake,woken", got)
	}
}

func TestThreadDoubleWakePanics(t *testing.T) {
	e := NewEngine()
	th := e.Spawn("t", 0, func(th *Thread) { th.Pause() })
	e.At(5, func() {
		th.WakeAt(10)
		defer func() {
			if recover() == nil {
				t.Error("duplicate wake did not panic")
			}
		}()
		th.WakeAt(20)
	})
	e.Run()
}

func TestThreadBodyPanicPropagates(t *testing.T) {
	e := NewEngine()
	// The panic comes after a Sleep, so it is raised by a resumed body
	// rather than by the body's first run.
	th := e.Spawn("bad", 0, func(th *Thread) {
		th.Sleep(10)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("thread panic did not propagate to engine")
		}
		s, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %#v is not a string", r)
		}
		if !strings.Contains(s, `"bad"`) {
			t.Errorf("panic value %q does not name the thread", s)
		}
		if !strings.Contains(s, "boom") {
			t.Errorf("panic value %q does not mention cause", s)
		}
		if th.state != ThreadDone {
			t.Errorf("state after panic = %v, want done", th.state)
		}
	}()
	e.Run()
}

// TestThreadHandoffAllocatesNothing pins the handoff's steady state:
// scheduling a wake and switching to and from the body allocate nothing.
func TestThreadHandoffAllocatesNothing(t *testing.T) {
	e := NewEngine()
	const sleeps = 10000
	e.Spawn("t", 0, func(th *Thread) {
		for i := 0; i < sleeps; i++ {
			th.Sleep(1)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n >= 100 {
		t.Errorf("%d sleeps allocated %d objects, want fewer than 100", sleeps, n)
	}
}

// spawnFinalized spawns a thread whose body is the only holder of an
// object with a finalizer; the finalizer closes released.
func spawnFinalized(e *Engine, released chan struct{}) *Thread {
	obj := new([64]byte)
	runtime.SetFinalizer(obj, func(*[64]byte) { close(released) })
	return e.Spawn("t", 0, func(th *Thread) {
		th.Sleep(1)
		obj[0] = 1
	})
}

// TestFinishedThreadReleasesBody checks that a finished thread keeps
// nothing of its body alive: the engine still lists the thread, so a
// thread holding its body's closure would pin the whole application.
func TestFinishedThreadReleasesBody(t *testing.T) {
	e := NewEngine()
	released := make(chan struct{})
	th := spawnFinalized(e, released)
	e.Run()
	timeout := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-released:
			done = true
		case <-time.After(10 * time.Millisecond):
		case <-timeout:
			t.Fatal("the finished thread's body was not collected")
		}
	}
	if th.state != ThreadDone || len(e.threads) != 1 {
		t.Fatalf("state = %v with %d registered threads, want done with 1", th.state, len(e.threads))
	}
}

func TestThreadWakePending(t *testing.T) {
	e := NewEngine()
	e.Spawn("t", 0, func(th *Thread) {
		if th.wakePending {
			t.Error("wake pending while running")
		}
		th.WakeAfter(10)
		if !th.wakePending {
			t.Error("wake not pending after WakeAfter")
		}
		th.Pause()
	})
	e.Run()
}

func TestManyThreadsBarrierStyle(t *testing.T) {
	// n threads pause; a controller wakes them all; all complete.
	e := NewEngine()
	const n = 64
	done := 0
	threads := make([]*Thread, n)
	for i := 0; i < n; i++ {
		threads[i] = e.Spawn("w", 0, func(th *Thread) {
			th.Pause()
			done++
		})
	}
	e.At(100, func() {
		for _, th := range threads {
			th.WakeAfter(1)
		}
	})
	e.Run()
	if done != n {
		t.Errorf("completed %d threads, want %d", done, n)
	}
}

func TestSpawnNow(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.At(33, func() {
		e.SpawnNow("t", func(th *Thread) { at = th.Now() })
	})
	e.Run()
	if at != 33 {
		t.Errorf("SpawnNow thread ran at %d, want 33", at)
	}
}

func TestThreadStateString(t *testing.T) {
	states := map[ThreadState]string{
		ThreadNew: "new", ThreadRunning: "running",
		ThreadPaused: "paused", ThreadDone: "done",
		ThreadState(42): "ThreadState(42)",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
