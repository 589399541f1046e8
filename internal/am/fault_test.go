package am

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// oneWay measures send-to-handler latency for one null message 0 -> 1.
func oneWay(t *testing.T, prep func(r *rig)) sim.Time {
	t.Helper()
	r := newRig()
	if prep != nil {
		prep(r)
	}
	var handled sim.Time = -1
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) { handled = c.Now() })
	var bd0, bd1 stats.Breakdown
	r.eng.Spawn("recv", 0, func(th *sim.Thread) {
		r.waitAndDrain(th, 1, &bd1, false)
	})
	var start sim.Time
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		start = th.Now()
		r.sys.Send(th, 0, 1, h, nil, nil, &bd0)
	})
	r.eng.SetEventLimit(1_000_000)
	r.eng.Run()
	if handled < 0 {
		t.Fatal("handler never ran")
	}
	return handled - start
}

func TestDrainStallDelaysDelivery(t *testing.T) {
	base := oneWay(t, nil)
	in, err := fault.New("stall:node=1,start=0ps,dur=20us", 1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	stalled := oneWay(t, func(r *rig) { r.sys.SetFaultInjector(in) })
	if stalled <= base || stalled < 20*sim.Microsecond {
		t.Errorf("stalled one-way = %v, want past the 20us stall window (baseline %v)", stalled, base)
	}
	if in.Stats().StallRefusals == 0 {
		t.Error("injector recorded no stall refusals")
	}

	// A stall on a different node leaves this path untouched.
	other, err := fault.New("stall:node=9,start=0ps,dur=20us", 1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	clear := oneWay(t, func(r *rig) { r.sys.SetFaultInjector(other) })
	if clear != base {
		t.Errorf("unrelated stall changed one-way: %v != %v", clear, base)
	}
}

func TestQueueDumpShowsBackedUpNI(t *testing.T) {
	r := newRig()
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
	var bd stats.Breakdown
	// Nobody drains node 1: messages pile up in its NI input queue.
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		for i := 0; i < 3; i++ {
			r.sys.Send(th, 0, 1, h, []int64{int64(i)}, nil, &bd)
		}
	})
	r.eng.Run()
	dump := r.sys.QueueDump(0)
	if len(dump) != 1 {
		t.Fatalf("QueueDump = %v, want one backed-up node", dump)
	}
	if !strings.Contains(dump[0], "node 1") || !strings.Contains(dump[0], "depth 3") {
		t.Errorf("dump entry %q lacks node or depth", dump[0])
	}
	if got := r.sys.QueueDump(1); len(got) != 1 {
		t.Errorf("QueueDump(1) returned %d entries", len(got))
	}
}
