package mem

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newUpdateRig() *testRig {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.Config{Width: 8, Height: 4, HopLatency: 40000, PsPerByte: 22223})
	clk := sim.NewClock(20)
	st := NewStore(32)
	par := DefaultParams()
	par.Protocol = ProtocolUpdate
	sys := NewSystem(eng, net, clk, par, st)
	return &testRig{eng: eng, net: net, clk: clk, st: st, sys: sys}
}

func TestUpdateProtocolReadersKeepCopies(t *testing.T) {
	r := newUpdateRig()
	a := r.st.Alloc(4, 2)
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		// Two readers cache the line.
		r.sys.Load(th, 1, a, &bd, stats.BucketMemWait)
		r.sys.Load(th, 2, a, &bd, stats.BucketMemWait)
		// A write pushes updates instead of invalidating.
		r.sys.StoreWord(th, 3, a, 7.5, &bd, stats.BucketMemWait)
		if !r.sys.cacheHas(1, a) || !r.sys.cacheHas(2, a) {
			t.Error("update protocol invalidated reader copies")
		}
		// Readers hit and see the new value.
		start := th.Now()
		if v := r.sys.Load(th, 1, a, &bd, stats.BucketMemWait); v != 7.5 {
			t.Errorf("reader saw %v, want 7.5", v)
		}
		if hit := r.clk.ToCyclesF(th.Now() - start); hit > 2 {
			t.Errorf("post-update read took %.1f cycles, want a hit", hit)
		}
	})
	if r.sys.Events().Invalidations != 0 {
		t.Errorf("update protocol sent %d invalidations", r.sys.Events().Invalidations)
	}
}

func TestUpdateProtocolWriterStaysShared(t *testing.T) {
	r := newUpdateRig()
	a := r.st.Alloc(4, 2)
	var bd stats.Breakdown
	var first, second float64
	r.run(func(th *sim.Thread) {
		r.sys.Load(th, 1, a, &bd, stats.BucketMemWait) // a sharer exists
		first = r.cycles(th, func() { r.sys.StoreWord(th, 3, a, 1, &bd, stats.BucketMemWait) })
		// Writer got a shared copy: the next store is another round trip,
		// not a hit.
		second = r.cycles(th, func() { r.sys.StoreWord(th, 3, a, 2, &bd, stats.BucketMemWait) })
	})
	if second < first/2 {
		t.Errorf("second store %.1f cycles vs first %.1f; write-through should not own the line",
			second, first)
	}
}

func TestUpdateProtocolAtomicsStillExclusive(t *testing.T) {
	r := newUpdateRig()
	a := r.st.Alloc(0, 2)
	const per = 30
	bodies := make([]func(*sim.Thread), 6)
	bds := make([]stats.Breakdown, 6)
	for i := range bodies {
		node, bd := i*5, &bds[i]
		bodies[i] = func(th *sim.Thread) {
			for k := 0; k < per; k++ {
				r.sys.RMW(th, node, a, func(v float64) float64 { return v + 1 }, bd, stats.BucketSync)
			}
		}
	}
	r.run(bodies...)
	if got := r.st.Peek(a); got != 6*per {
		t.Errorf("RMW total under update protocol = %v, want %d", got, 6*per)
	}
}

func TestUpdateProtocolProducerConsumerVolume(t *testing.T) {
	// Steady-state producer->consumer: invalidation pays ~4 messages per
	// value (invalidate, ack, re-request, refill); update pays the
	// write-through round plus one update, and the consumer's read is a
	// hit. With one consumer re-reading every value, update should move
	// fewer bytes.
	measure := func(update bool) int64 {
		var r *testRig
		if update {
			r = newUpdateRig()
		} else {
			r = newRig()
		}
		a := r.st.Alloc(4, 2)
		var bd stats.Breakdown
		var delta int64
		r.run(func(th *sim.Thread) {
			// Warm: consumer holds a copy.
			r.sys.StoreWord(th, 1, a, 0, &bd, stats.BucketMemWait)
			r.sys.Load(th, 2, a, &bd, stats.BucketMemWait)
			before := r.net.Volume().Total()
			for i := 0; i < 10; i++ {
				r.sys.StoreWord(th, 1, a, float64(i), &bd, stats.BucketMemWait)
				if v := r.sys.Load(th, 2, a, &bd, stats.BucketMemWait); v != float64(i) {
					t.Errorf("consumer saw %v, want %d", v, i)
				}
			}
			delta = r.net.Volume().Total() - before
		})
		return delta
	}
	inval := measure(false)
	upd := measure(true)
	if upd >= inval {
		t.Errorf("update volume %d >= invalidate %d for producer-consumer", upd, inval)
	}
}
