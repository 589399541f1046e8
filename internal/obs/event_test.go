package obs_test

import (
	"bytes"
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
