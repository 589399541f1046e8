package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// spinRun is what a run of spinOrSleep leaves for comparison.
type spinRun struct {
	Log        []string // "time who" per dispatch, in dispatch order
	Spans      []string // span-observer calls, in order
	Dispatched uint64
}

// spinOrSleep runs a spinner thread that waits through ds, by Spin if
// spin is set and by one Sleep per duration otherwise, beside a
// neighbour thread that wakes at the same picoseconds and schedules
// engine events at the spinner's later wake times. Ties between them
// are broken by scheduling order, so any difference in when the spin
// schedules its wakes, or in where its end resumes the spinner, shows
// in the dispatch log.
func spinOrSleep(spin bool, ds []Time) spinRun {
	e := NewEngine()
	var r spinRun
	logf := func(who string) { r.Log = append(r.Log, fmt.Sprintf("%d %s", e.Now(), who)) }
	e.SetSpanObserver(func(th *Thread, start, end Time, blocked bool, reason string, arg int64) {
		r.Spans = append(r.Spans, fmt.Sprintf("%s %d-%d blocked=%v %q %d", th.Name(), start, end, blocked, reason, arg))
	})
	k := 0
	step := func() (Time, bool) {
		logf("spinner")
		k++
		if k == len(ds) {
			return 0, false
		}
		return ds[k], true
	}
	body := func(th *Thread) {
		th.SetWaitReason("spin", 7)
		if spin {
			th.Spin(ds[0], step)
		} else {
			for _, d := range ds {
				th.Sleep(d)
				logf("spinner")
			}
		}
		logf("spinner resumed")
		e.At(e.Now(), func() { logf("event after spin") })
		th.Sleep(1)
		logf("spinner done")
	}
	neighbour := func(th *Thread) {
		for _, d := range ds {
			logf("neighbour")
			e.After(d, func() { logf("event") })
			e.After(2*d, func() { logf("event") })
			th.Sleep(d)
		}
		logf("neighbour done")
	}
	e.Spawn("spinner", 0, body)
	e.Spawn("neighbour", 0, neighbour)
	e.Run()
	r.Dispatched = e.Dispatched()
	return r
}

// TestSpinMatchesSleeps checks Spin's contract against the loop of
// Sleeps it stands for: the same dispatch log, event count and
// span-observer calls, which carry each pause's interval and whether it
// blocked.
func TestSpinMatchesSleeps(t *testing.T) {
	for _, ds := range [][]Time{
		{5},
		{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5},
		{0, 2, 0, 2, 2, 1, 1, 0, 3},
	} {
		want, got := spinOrSleep(false, ds), spinOrSleep(true, ds)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("durations %v:\nspin  %+v\nsleep %+v", ds, got, want)
		}
	}
}

// TestThreadSpinAllocatesNothing pins that absorbed wakes allocate
// nothing.
func TestThreadSpinAllocatesNothing(t *testing.T) {
	e := NewEngine()
	const wakes = 10000
	n := 0
	step := func() (Time, bool) {
		n++
		return 1, n < wakes
	}
	e.Spawn("t", 0, func(th *Thread) { th.Spin(1, step) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run()
	runtime.ReadMemStats(&after)
	if n != wakes {
		t.Fatalf("step ran %d times, want %d", n, wakes)
	}
	if m := after.Mallocs - before.Mallocs; m >= 100 {
		t.Errorf("%d absorbed wakes allocated %d objects, want fewer than 100", wakes, m)
	}
}

func TestSpinOnPausedThreadPanics(t *testing.T) {
	e := NewEngine()
	th := e.Spawn("t", 0, func(th *Thread) { th.Pause() })
	e.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("Spin from outside the running thread did not panic")
			}
		}()
		th.Spin(1, func() (Time, bool) { return 0, false })
	})
	e.At(2, func() { th.WakeAt(2) })
	e.Run()
}
