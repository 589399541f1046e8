package obs_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestDumpEvents(t *testing.T) {
	clk := sim.NewClock(20) // 50000 ps per cycle
	dump := func(capacity, adds int) string {
		r := obs.NewRing[obs.Event](capacity)
		for i := 0; i < adds; i++ {
			r.Add(obs.Event{At: sim.Time(i) * 50000, Node: i, Kind: obs.KBarrier, A: int64(i)})
		}
		var buf bytes.Buffer
		obs.DumpEvents(&buf, clk, r)
		return buf.String()
	}
	// A wrapped ring reports what it evicted.
	want := "         1  node  1  barrier     a=1 b=0\n" +
		"         2  node  2  barrier     a=2 b=0\n" +
		"(1 earlier events dropped)\n"
	if got := dump(2, 3); got != want {
		t.Errorf("wrapped dump:\n%s\nwant:\n%s", got, want)
	}
	// A partly filled ring has dropped nothing.
	if got := dump(8, 3); strings.Contains(got, "dropped") || strings.Count(got, "\n") != 3 {
		t.Errorf("partial dump:\n%s", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k := obs.KMissStart; k <= obs.KLock; k++ {
		if strings.Contains(k.String(), "EventKind(") {
			t.Errorf("kind %d lacks a name", int(k))
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	// Every in-range kind must have a distinct name (a duplicate would
	// make dumps ambiguous), and out-of-range values must degrade to the
	// numeric form rather than stealing a real kind's name.
	seen := map[string]obs.EventKind{}
	for k := obs.KMissStart; k <= obs.KLock; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	for _, k := range []obs.EventKind{obs.KLock + 1, 99, -1} {
		want := fmt.Sprintf("EventKind(%d)", int(k))
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(k), got, want)
		}
		if _, taken := seen[k.String()]; taken {
			t.Errorf("out-of-range kind %d collides with a named kind", int(k))
		}
	}
}
