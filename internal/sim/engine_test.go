package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order at %d: got %d", i, v)
		}
	}
}

func TestEngineNowAdvancesDuringEvents(t *testing.T) {
	e := NewEngine()
	var seen []Time
	e.At(7, func() { seen = append(seen, e.Now()) })
	e.At(11, func() { seen = append(seen, e.Now()) })
	e.Run()
	if seen[0] != 7 || seen[1] != 11 {
		t.Errorf("Now() during events = %v, want [7 11]", seen)
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Errorf("After fired at %d, want 150", at)
	}
}

func TestEnginePastEventPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling event in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(10)
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("event limit exceeded without panic")
		}
	}()
	e.Run()
}

func TestEngineDispatchedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Dispatched() != 5 {
		t.Errorf("Dispatched = %d, want 5", e.Dispatched())
	}
}

// Property: for any set of event times, events fire in nondecreasing time
// order and the engine's final time equals the maximum scheduled time.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			at := Time(d)
			if at > max {
				max = at
			}
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		if end != max {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
