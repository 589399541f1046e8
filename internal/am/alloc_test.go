package am

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// rttTimer is the part of *testing.B that runNullRTTs drives, so the
// allocation test and BenchmarkNullMessage share one set-up.
type rttTimer interface {
	StartTimer()
	StopTimer()
	ResetTimer()
}

// runNullRTTs runs warm untimed round trips of an argument-free request
// from node 0 to node 4 and its reply, both received by polling, then n
// more with tm started.
func runNullRTTs(warm, n int, tm rttTimer) {
	tm.StopTimer()
	r := newRig()
	const peer = 4
	served, got := 0, 0
	reply := r.sys.Register(func(*Ctx, []int64, []float64) { got++ })
	request := r.sys.Register(func(c *Ctx, _ []int64, _ []float64) {
		served++
		c.Reply(c.Src, reply, nil, nil)
	})
	// poll waits for and handles node's next messages. Each thread's wake
	// callback is bound once, as machine.Proc binds its own.
	poll := func(th *sim.Thread, node int, wake func(), bd *stats.Breakdown) {
		if !r.sys.HasPending(node) {
			r.sys.Notify(node, wake)
			th.Pause()
		}
		r.sys.Poll(th, node, bd)
	}
	var bd0, bd4 stats.Breakdown
	r.eng.Spawn("n0", 0, func(th *sim.Thread) {
		wake := func() { th.WakeAt(r.eng.Now()) }
		for i := 0; i < warm+n; i++ {
			if i == warm {
				tm.ResetTimer()
				tm.StartTimer()
			}
			r.sys.Send(th, 0, peer, request, nil, nil, &bd0)
			for got <= i {
				poll(th, 0, wake, &bd0)
			}
		}
		tm.StopTimer()
	})
	r.eng.Spawn("n4", 0, func(th *sim.Thread) {
		wake := func() { th.WakeAt(r.eng.Now()) }
		for served < warm+n {
			poll(th, peer, wake, &bd4)
		}
	})
	r.eng.Run()
	if got != warm+n {
		panic("am: null round trips left unanswered")
	}
}

// mallocCounter is an rttTimer that counts heap allocations while
// started.
type mallocCounter struct {
	on           bool
	start, total uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (m *mallocCounter) StartTimer() {
	if !m.on {
		m.on, m.start = true, mallocs()
	}
}

func (m *mallocCounter) StopTimer() {
	if m.on {
		m.on = false
		m.total += mallocs() - m.start
	}
}

func (m *mallocCounter) ResetTimer() {
	m.total = 0
	if m.on {
		m.start = mallocs()
	}
}

// TestWarmNullRoundTripsAllocateNothing pins the pooled message path:
// once the records exist, a request and its reply allocate nothing.
func TestWarmNullRoundTripsAllocateNothing(t *testing.T) {
	const warm, n = 64, 10_000
	var m mallocCounter
	runNullRTTs(warm, n, &m)
	if m.total >= 100 {
		t.Errorf("%d warm null round trips allocated %d objects, want fewer than 100", n, m.total)
	}
}

// TestHandlerArgsStableUntilReturn checks that a message's record stays
// out of the pool while its handler runs: a message injected while the
// handler is computing must not reuse the handler's buffers.
func TestHandlerArgsStableUntilReturn(t *testing.T) {
	r := newRig()
	var before, after []int64
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {
		before = append(before, args...)
		c.Compute(1000)
		after = append(after, args...)
	})
	idle := r.sys.Register(func(*Ctx, []int64, []float64) {})
	var bd0, bd1, bd2 stats.Breakdown
	r.eng.Spawn("recv", 0, func(th *sim.Thread) { r.waitAndDrain(th, 1, &bd1, true) })
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		r.sys.Send(th, 0, 1, h, []int64{7, 8}, nil, &bd0)
	})
	r.eng.Spawn("other", 0, func(th *sim.Thread) {
		th.Sleep(r.clk.Cycles(500)) // the handler is computing by now
		r.sys.Send(th, 2, 3, idle, []int64{9, 9}, nil, &bd2)
	})
	r.eng.Run()
	if len(before) != 2 || before[0] != 7 || before[1] != 8 {
		t.Fatalf("handler saw args %v, want [7 8]", before)
	}
	if len(after) != 2 || after[0] != 7 || after[1] != 8 {
		t.Errorf("args changed while the handler ran: %v, then %v", before, after)
	}
}

// BenchmarkNullMessage measures one round trip of an argument-free
// request from node 0 to node 4 and its reply, both received by polling.
func BenchmarkNullMessage(b *testing.B) {
	b.ReportAllocs()
	runNullRTTs(64, b.N, b)
}
