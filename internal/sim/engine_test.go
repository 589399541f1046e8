package sim

import (
	"cmp"
	"math/rand"
	"slices"
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

// orderGen draws an event program from a script: each dispatched event
// reads how many children to schedule and when. Both the engine and the
// reference run the same script, and the script is read in dispatch
// order, so the two schedule the same events exactly as long as they
// dispatch in the same order. Past its end the script reads as zeros,
// which schedule nothing, so every program terminates.
type orderGen struct {
	script []byte
	pos    int
	left   int    // events the program may still schedule
	far    []Time // times of earlier far-future events, for ties
}

func (g *orderGen) next() Time {
	if g.pos >= len(g.script) {
		return 0
	}
	g.pos++
	return Time(g.script[g.pos-1])
}

// children reports how many events the dispatched event schedules.
func (g *orderGen) children() int {
	n := int(g.next() % 4)
	if n > g.left {
		n = g.left
	}
	g.left -= n
	return n
}

// at draws an event time at or after now from one of eight classes.
func (g *orderGen) at(now Time) Time {
	const (
		width   = Time(1) << slotShift
		horizon = wheelSlots * width
	)
	class := g.next() % 8
	v := g.next()<<8 | g.next()
	switch class {
	case 0: // at Now, from inside a dispatch
		return now
	case 1: // a few picoseconds on: often earlier than its slot's tail
		return now + v%64
	case 2: // the next few slots
		return now + v%(4*width)
	case 3: // either side of the horizon
		return now + horizon - 2*width + v%(4*width)
	case 4: // anywhere inside the horizon: the index wraps
		return now + v*256%horizon
	case 5: // far future, beyond the horizon
		t := now + horizon*(1+v%6) + v
		g.far = append(g.far, t)
		return t
	case 6: // the same picosecond as an earlier far-future event
		if len(g.far) > 0 {
			if t := g.far[int(v)%len(g.far)]; t >= now {
				return t
			}
		}
		return now + v%width
	default: // a 1 ns grid: ties between unrelated events
		return (now/1000 + 1 + v%32) * 1000
	}
}

// orderCoverage counts the cases a program exercised in the engine.
type orderCoverage struct {
	appended, outOfOrder, beyond, atNow, wrapped, tieHeapFirst int
}

// runEngineOrder runs the program on an Engine and returns the events'
// ids in dispatch order with their times, counting in cov how each event
// was queued and each same-time dispatch of a heap event before a wheel
// event.
func runEngineOrder(script []byte, maxEvents int, cov *orderCoverage) ([]int, []Time) {
	e := NewEngine()
	g := &orderGen{script: script, left: maxEvents}
	var (
		ids      []int
		times    []Time
		fromHeap []bool
		schedule func(t Time)
	)
	schedule = func(t Time) {
		id := len(fromHeap)
		heaped := len(e.heap)
		nowSlot := e.now >> slotShift
		if t == e.now && e.dispatched > 0 {
			cov.atNow++
		}
		e.At(t, func() {
			if n := len(ids); n > 0 && times[n-1] == e.now && fromHeap[ids[n-1]] && !fromHeap[id] {
				cov.tieHeapFirst++
			}
			ids = append(ids, id)
			times = append(times, e.now)
			for n := g.children(); n > 0; n-- {
				schedule(g.at(e.now))
			}
		})
		inHeap := len(e.heap) > heaped
		fromHeap = append(fromHeap, inHeap)
		switch {
		case !inHeap:
			cov.appended++
			if t>>slotShift&(wheelSlots-1) < nowSlot&(wheelSlots-1) {
				cov.wrapped++
			}
		case t>>slotShift-nowSlot >= wheelSlots:
			cov.beyond++
		default:
			cov.outOfOrder++
		}
	}
	for n := g.children() + 4; n > 0; n-- {
		schedule(g.at(0))
	}
	e.Run()
	return ids, times
}

// referenceOrder runs the program on a reference queue: a slice kept
// stable-sorted by time, so events of the same time stay in scheduling
// order, i.e. sorted by (at, seq).
func referenceOrder(script []byte, maxEvents int) ([]int, []Time) {
	type refEvent struct {
		at Time
		id int
	}
	var (
		q     []refEvent
		ids   []int
		times []Time
		now   Time
		next  int
	)
	g := &orderGen{script: script, left: maxEvents}
	schedule := func(t Time) {
		q = append(q, refEvent{t, next})
		next++
	}
	for n := g.children() + 4; n > 0; n-- {
		schedule(g.at(0))
	}
	for len(q) > 0 {
		slices.SortStableFunc(q, func(a, b refEvent) int { return cmp.Compare(a.at, b.at) })
		ev := q[0]
		q = q[1:]
		now = ev.at
		ids = append(ids, ev.id)
		times = append(times, now)
		for n := g.children(); n > 0; n-- {
			schedule(g.at(now))
		}
	}
	return ids, times
}

// checkOrder fails t unless the engine dispatches the script's program
// in the reference order.
func checkOrder(t *testing.T, script []byte, cov *orderCoverage) {
	t.Helper()
	const maxEvents = 3000
	ids, times := runEngineOrder(script, maxEvents, cov)
	wantIDs, wantTimes := referenceOrder(script, maxEvents)
	if len(ids) != len(wantIDs) {
		t.Fatalf("engine dispatched %d events, reference %d", len(ids), len(wantIDs))
	}
	for i := range ids {
		if ids[i] != wantIDs[i] || times[i] != wantTimes[i] {
			t.Fatalf("dispatch %d: event %d at %v, reference event %d at %v",
				i, ids[i], times[i], wantIDs[i], wantTimes[i])
		}
	}
}

// orderScript is seed's random script for the order tests.
func orderScript(seed int64) []byte {
	b := make([]byte, 12000)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestEngineMatchesReferenceOrder runs seeded random programs on the
// engine and on a reference that stable-sorts by (at, seq), and checks
// that the programs exercised every way an event can be queued.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	var cov orderCoverage
	for seed := int64(0); seed < 40; seed++ {
		checkOrder(t, orderScript(seed), &cov)
	}
	for name, n := range map[string]int{
		"appended to a slot tail":                   cov.appended,
		"earlier than its slot's tail, to heap":     cov.outOfOrder,
		"beyond the horizon, to heap":               cov.beyond,
		"at Now from inside a dispatch":             cov.atNow,
		"in a slot past the wheel's wrap":           cov.wrapped,
		"heap event before a same-time wheel event": cov.tieHeapFirst,
	} {
		if n == 0 {
			t.Errorf("no event %s", name)
		}
	}
	t.Logf("%+v", cov)
}

// FuzzEngineOrder runs fuzzed programs through the same check.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(orderScript(seed))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		checkOrder(t, script, &orderCoverage{})
	})
}
