package sim

import "testing"

// BenchmarkEngineEventThroughput measures raw event dispatch rate — the
// simulator's fundamental speed limit. With the value-slab heap this is
// allocation-free at steady state (the seed's pointer heap paid one
// allocation per scheduled event).
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

// BenchmarkEngineDeepQueue measures dispatch with many events pending —
// the realistic regime (every processor, controller and router holds
// scheduled work), where heap sift depth and cache behavior dominate.
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
