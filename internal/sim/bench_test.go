package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineEventThroughput measures raw event dispatch rate — the
// simulator's fundamental speed limit. Every event appends to a wheel
// slot, and dispatch is allocation-free at steady state (the seed's
// pointer heap paid one allocation per scheduled event).
func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineDeepQueue measures dispatch with 1024 events pending,
// 1 to 97 ps apart. They all fall into one or two wheel slots, and most
// are earlier than their slot's tail, so this measures the heap behind
// the wheel, where sift depth and cache behavior dominate.
func BenchmarkEngineDeepQueue(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Time(1+n%97), tick)
		}
	}
	// 1024 concurrent event chains with scattered timestamps.
	for i := 0; i < 1024; i++ {
		e.After(Time(1+i%97), tick)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineMachineQueue measures dispatch under the traffic a
// simulated machine gives the queue: 32 or 512 chains, one per
// processor, each waking one clock cycle after its last. One wake in 8
// comes 1 ps early, so the chains drift off the cycle grid and a share
// of wakes lands earlier than its slot's tail; one in 64 sleeps 20 us,
// past the wheel's horizon. The cycles are 20 MHz (the Alewife clock)
// and the ends of the cmd/emulate clock range, 300 MHz and 2 MHz.
func BenchmarkEngineMachineQueue(b *testing.B) {
	for _, chains := range []int{32, 512} {
		for _, clk := range []struct {
			name  string
			cycle Time
		}{{"20MHz", 50000}, {"300MHz", 3333}, {"2MHz", 500000}} {
			b.Run(fmt.Sprintf("chains=%d/%s", chains, clk.name), func(b *testing.B) {
				b.ReportAllocs()
				e := NewEngine()
				n := 0
				var tick func()
				tick = func() {
					n++
					if n >= b.N {
						return
					}
					d := clk.cycle
					switch {
					case n%64 == 0:
						d += 20 * Microsecond
					case n%8 == 0:
						d--
					}
					e.After(d, tick)
				}
				for i := 0; i < chains; i++ {
					e.At(0, tick)
				}
				b.ResetTimer()
				e.Run()
			})
		}
	}
}

// BenchmarkThreadHandoff measures the cooperative-scheduling round trip
// (engine -> thread -> engine), the cost of every simulated blocking op.
func BenchmarkThreadHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("t", 0, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkThreadSpin measures one wake absorbed by Thread.Spin: the
// event and the pause accounting of a Sleep's wake, without the two
// coroutine switches of BenchmarkThreadHandoff.
func BenchmarkThreadSpin(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	step := func() (Time, bool) {
		n++
		return 1, n < b.N
	}
	e.Spawn("t", 0, func(th *Thread) { th.Spin(1, step) })
	b.ResetTimer()
	e.Run()
}
