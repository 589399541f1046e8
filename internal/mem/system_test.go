package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
)

// testRig wires an engine, Alewife-calibrated mesh, clock, store, and
// memory system for 32 nodes.
type testRig struct {
	eng *sim.Engine
	net *mesh.Network
	clk sim.Clock
	st  *Store
	sys *System
}

func newRig() *testRig {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.Config{Width: 8, Height: 4, HopLatency: 40000, PsPerByte: 22223})
	clk := sim.NewClock(20)
	st := NewStore(32)
	sys := NewSystem(eng, net, clk, DefaultParams(), st)
	return &testRig{eng: eng, net: net, clk: clk, st: st, sys: sys}
}

// run spawns one thread per body at t=0 and runs to completion, then
// checks that every body returned (a thread left paused forever would
// skip its own assertions) and the directory/cache invariants at
// quiescence. Every protocol scenario in this package therefore doubles
// as an invariant test.
func (r *testRig) run(bodies ...func(th *sim.Thread)) {
	finished := 0
	for i, b := range bodies {
		b := b
		r.eng.Spawn("t", sim.Time(i)*0, func(th *sim.Thread) { b(th); finished++ })
	}
	r.eng.SetEventLimit(50_000_000)
	r.eng.Run()
	if finished != len(bodies) {
		panic(fmt.Sprintf("%d of %d threads never finished", len(bodies)-finished, len(bodies)))
	}
	if err := r.sys.CheckInvariants(true); err != nil {
		panic(err)
	}
}

// cycles measures the elapsed cycles of fn inside a thread.
func (r *testRig) cycles(th *sim.Thread, fn func()) float64 {
	start := th.Now()
	fn()
	return r.clk.ToCyclesF(th.Now() - start)
}

func TestStoreAllocHomePeekPoke(t *testing.T) {
	st := NewStore(32)
	a := st.Alloc(3, 10)
	if st.Home(a) != 3 {
		t.Errorf("Home = %d, want 3", st.Home(a))
	}
	st.Poke(a+5, 42.5)
	if st.Peek(a+5) != 42.5 {
		t.Errorf("Peek = %v, want 42.5", st.Peek(a+5))
	}
	b := st.Alloc(3, 3) // odd size forces alignment of next alloc
	c := st.Alloc(3, 2)
	if LineOf(b+2, 2) == LineOf(c, 2) {
		t.Error("allocations share a cache line")
	}
}

func TestStoreAllocPanics(t *testing.T) {
	st := NewStore(4)
	for _, f := range []func(){
		func() { st.Alloc(-1, 8) },
		func() { st.Alloc(4, 8) },
		func() { st.Alloc(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Alloc did not panic")
				}
			}()
			f()
		}()
	}
}

func TestLocalMissThenHit(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(0, 2)
	var missCyc, hitCyc float64
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		missCyc = r.cycles(th, func() { r.sys.Load(th, 0, a, &bd, stats.BucketMemWait) })
		hitCyc = r.cycles(th, func() { r.sys.Load(th, 0, a, &bd, stats.BucketMemWait) })
	})
	if missCyc < 8 || missCyc > 20 {
		t.Errorf("local miss = %.1f cycles, want ~11", missCyc)
	}
	if hitCyc > 2 {
		t.Errorf("hit = %.1f cycles, want ~1", hitCyc)
	}
	ev := r.sys.Events()
	if ev.LocalMisses != 1 {
		t.Errorf("LocalMisses = %d, want 1", ev.LocalMisses)
	}
}

func TestRemoteCleanReadLatency(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(5, 2) // home (5,0): 5 hops from node 0
	r.st.Poke(a, 7.0)
	var cyc float64
	var got float64
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		cyc = r.cycles(th, func() { got = r.sys.Load(th, 0, a, &bd, stats.BucketMemWait) })
	})
	if got != 7.0 {
		t.Errorf("loaded %v, want 7", got)
	}
	// Paper: ~42 cycles + 1.6/hop; at 5 hops expect ~40-55.
	if cyc < 30 || cyc > 60 {
		t.Errorf("remote clean read = %.1f cycles, want ~42", cyc)
	}
	ev := r.sys.Events()
	if ev.RemoteMissesCln != 1 {
		t.Errorf("RemoteMissesCln = %d, want 1", ev.RemoteMissesCln)
	}
	if bd.T[stats.BucketMemWait] == 0 {
		t.Error("remote miss charged no memory wait")
	}
}

func TestRemoteDirtyReadThreeParty(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(4, 2) // home 4
	var dirtyCyc float64
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		// Node 2 writes (becomes owner), then node 0 reads: 3-party.
		r.sys.StoreWord(th, 2, a, 9.0, &bd, stats.BucketMemWait)
		dirtyCyc = r.cycles(th, func() {
			if v := r.sys.Load(th, 0, a, &bd, stats.BucketMemWait); v != 9.0 {
				t.Errorf("dirty read got %v, want 9", v)
			}
		})
	})
	if dirtyCyc < 50 || dirtyCyc > 110 {
		t.Errorf("3-party dirty read = %.1f cycles, want ~63-85", dirtyCyc)
	}
	if r.sys.Events().RemoteMissesDty != 1 {
		t.Errorf("RemoteMissesDty = %d, want 1", r.sys.Events().RemoteMissesDty)
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(1, 2)
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		r.sys.Load(th, 0, a, &bd, stats.BucketMemWait) // 0 caches S
		r.sys.Load(th, 2, a, &bd, stats.BucketMemWait) // 2 caches S
		if !r.sys.cacheHas(0, a) || !r.sys.cacheHas(2, a) {
			t.Fatal("readers did not cache the line")
		}
		r.sys.StoreWord(th, 3, a, 1.0, &bd, stats.BucketMemWait) // invalidates 0 and 2
		if r.sys.cacheHas(0, a) || r.sys.cacheHas(2, a) {
			t.Error("write did not invalidate cached readers")
		}
		if v := r.sys.Load(th, 0, a, &bd, stats.BucketMemWait); v != 1.0 {
			t.Errorf("read-after-invalidate got %v, want 1", v)
		}
	})
	ev := r.sys.Events()
	if ev.Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2", ev.Invalidations)
	}
}

func TestProducerConsumerMessagePattern(t *testing.T) {
	// The paper (§5.1): communicating one value through shared memory
	// with an invalidation protocol takes at least four messages. Measure
	// traffic for a steady-state producer->consumer handoff.
	r := newRig()
	a := r.st.Alloc(4, 2) // home 4, producer 1, consumer 2: all distinct
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		// Warm up: consumer holds S copy, producer re-acquires M.
		r.sys.StoreWord(th, 1, a, 1.0, &bd, stats.BucketMemWait)
		r.sys.Load(th, 2, a, &bd, stats.BucketMemWait)
		before := r.net.Volume()
		beforeInval := r.sys.Events().Invalidations
		// Steady-state round: produce, consume.
		r.sys.StoreWord(th, 1, a, 2.0, &bd, stats.BucketMemWait)
		r.sys.Load(th, 2, a, &bd, stats.BucketMemWait)
		vol := r.net.Volume()
		delta := vol.Total() - before.Total()
		// Producer upgrade: req(8) + inval(8) + ack(8) + data reply(24);
		// consumer read: req(8) + fetch(8) + wb data(24) + data(24).
		if delta < 80 || delta > 130 {
			t.Errorf("steady-state handoff moved %d bytes, want ~112 (>=4 msgs/value)", delta)
		}
		if r.sys.Events().Invalidations-beforeInval < 1 {
			t.Error("handoff produced no invalidations")
		}
	})
}

func TestRMWAtomicityAcrossNodes(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(0, 2)
	const perNode = 50
	bodies := make([]func(*sim.Thread), 8)
	bds := make([]stats.Breakdown, 8)
	for i := range bodies {
		node := i * 4
		bd := &bds[i]
		bodies[i] = func(th *sim.Thread) {
			for k := 0; k < perNode; k++ {
				r.sys.RMW(th, node, a, func(v float64) float64 { return v + 1 }, bd, stats.BucketSync)
			}
		}
	}
	r.run(bodies...)
	if got := r.st.Peek(a); got != float64(8*perNode) {
		t.Errorf("concurrent RMW total = %v, want %d", got, 8*perNode)
	}
}

func TestLimitLESSTrap(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(0, 2)
	var bd stats.Breakdown
	var overflowCyc float64
	r.run(func(th *sim.Thread) {
		// 5 sharers fit in hardware; the 6th read traps.
		for n := 1; n <= 5; n++ {
			r.sys.Load(th, n, a, &bd, stats.BucketMemWait)
		}
		if r.sys.Events().LimitLESSTraps != 0 {
			t.Fatalf("trapped before overflow: %d", r.sys.Events().LimitLESSTraps)
		}
		overflowCyc = r.cycles(th, func() { r.sys.Load(th, 6, a, &bd, stats.BucketMemWait) })
	})
	if r.sys.Events().LimitLESSTraps != 1 {
		t.Errorf("LimitLESSTraps = %d, want 1", r.sys.Events().LimitLESSTraps)
	}
	// Paper: software-handled read ~425 cycles vs ~42 hardware.
	if overflowCyc < 300 || overflowCyc > 550 {
		t.Errorf("LimitLESS read = %.1f cycles, want ~425", overflowCyc)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(7, 2)
	r.st.Poke(a, 3.0)
	var bd stats.Breakdown
	var cyc float64
	r.run(func(th *sim.Thread) {
		r.sys.Prefetch(0, a, false)
		th.Sleep(r.clk.Cycles(200)) // plenty of time for the fill
		cyc = r.cycles(th, func() {
			if v := r.sys.Load(th, 0, a, &bd, stats.BucketMemWait); v != 3.0 {
				t.Errorf("prefetched load got %v, want 3", v)
			}
		})
	})
	if cyc > 6 {
		t.Errorf("prefetched load = %.1f cycles, want ~3 (buffer hit)", cyc)
	}
	ev := r.sys.Events()
	if ev.PrefetchIssued != 1 || ev.PrefetchUseful != 1 {
		t.Errorf("prefetch counters = %+v, want issued=1 useful=1", ev)
	}
}

func TestPrefetchJoinedByDemandCountsUseful(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(7, 2)
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		r.sys.Prefetch(0, a, false)
		// Demand load immediately: joins the in-flight prefetch.
		r.sys.Load(th, 0, a, &bd, stats.BucketMemWait)
	})
	ev := r.sys.Events()
	if ev.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d, want 1 (demand join)", ev.PrefetchUseful)
	}
}

func TestUselessPrefetchesEvicted(t *testing.T) {
	r := newRig()
	par := DefaultParams()
	addrs := make([]Addr, par.PrefetchEntries+4)
	for i := range addrs {
		addrs[i] = r.st.Alloc(1, 2)
	}
	r.run(func(th *sim.Thread) {
		for _, a := range addrs {
			r.sys.Prefetch(0, a, false)
			th.Sleep(r.clk.Cycles(100))
		}
	})
	ev := r.sys.Events()
	if ev.PrefetchUseless != 4 {
		t.Errorf("PrefetchUseless = %d, want 4 (FIFO overflow)", ev.PrefetchUseless)
	}
}

func TestWritePrefetchGrantsOwnership(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(6, 2)
	var bd stats.Breakdown
	var cyc float64
	r.run(func(th *sim.Thread) {
		r.sys.Prefetch(0, a, true)
		th.Sleep(r.clk.Cycles(200))
		cyc = r.cycles(th, func() {
			r.sys.StoreWord(th, 0, a, 5.0, &bd, stats.BucketMemWait)
		})
	})
	if cyc > 6 {
		t.Errorf("write after write-prefetch = %.1f cycles, want ~3", cyc)
	}
	if r.st.Peek(a) != 5.0 {
		t.Errorf("value = %v, want 5", r.st.Peek(a))
	}
}

func TestEvictionWritesBackDirtyLine(t *testing.T) {
	r := newRig()
	par := DefaultParams()
	a := r.st.Alloc(1, 2)
	// Allocate enough on node 1 to find a conflicting line.
	filler := r.st.Alloc(1, par.CacheLines*par.LineWords)
	conflict := filler
	for LineOf(conflict, par.LineWords)%Addr(par.CacheLines) != LineOf(a, par.LineWords)%Addr(par.CacheLines) {
		conflict += Addr(par.LineWords)
	}
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		r.sys.StoreWord(th, 0, a, 1.5, &bd, stats.BucketMemWait) // dirty in node 0
		r.sys.Load(th, 0, conflict, &bd, stats.BucketMemWait)    // evicts it
		if r.sys.cacheHas(0, a) {
			t.Error("conflicting fill did not evict")
		}
		// Another node reads the line: must see the written value.
		if v := r.sys.Load(th, 2, a, &bd, stats.BucketMemWait); v != 1.5 {
			t.Errorf("read after write-back got %v, want 1.5", v)
		}
	})
	if r.sys.Events().WriteBacks < 1 {
		t.Error("no write-back counted")
	}
}

func TestIdealNetworkUniformLatency(t *testing.T) {
	r := newRig()
	oneWay := r.clk.Cycles(100)
	r.sys.SetIdealNetwork(oneWay)
	near := r.st.Alloc(1, 2) // 1 hop away from node 0
	far := r.st.Alloc(31, 2) // 10 hops away
	var nearCyc, farCyc float64
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		nearCyc = r.cycles(th, func() { r.sys.Load(th, 0, near, &bd, stats.BucketMemWait) })
		farCyc = r.cycles(th, func() { r.sys.Load(th, 0, far, &bd, stats.BucketMemWait) })
	})
	if nearCyc != farCyc {
		t.Errorf("ideal network latencies differ: near %.1f, far %.1f", nearCyc, farCyc)
	}
	// Round trip of 2*100 cycles plus occupancies.
	if nearCyc < 200 || nearCyc > 260 {
		t.Errorf("ideal remote miss = %.1f cycles, want ~220", nearCyc)
	}
	if r.net.PacketsSent() != 0 {
		t.Errorf("ideal mode sent %d real packets", r.net.PacketsSent())
	}
}

func TestUpgradeCounted(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(3, 2)
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		r.sys.Load(th, 0, a, &bd, stats.BucketMemWait)         // S
		r.sys.StoreWord(th, 0, a, 1, &bd, stats.BucketMemWait) // upgrade
	})
	if r.sys.Events().Upgrades != 1 {
		t.Errorf("Upgrades = %d, want 1", r.sys.Events().Upgrades)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (sim.Time, float64) {
		r := newRig()
		a := r.st.Alloc(0, 64)
		bodies := make([]func(*sim.Thread), 4)
		bds := make([]stats.Breakdown, 4)
		for i := range bodies {
			node, bd := i*7, &bds[i]
			bodies[i] = func(th *sim.Thread) {
				for k := 0; k < 30; k++ {
					r.sys.RMW(th, node, a+Addr(k%8), func(v float64) float64 { return v + 1 }, bd, stats.BucketSync)
				}
			}
		}
		r.run(bodies...)
		return r.eng.Now(), r.st.Peek(a)
	}
	t1, v1 := runOnce()
	t2, v2 := runOnce()
	if t1 != t2 || v1 != v2 {
		t.Errorf("nondeterministic: (%v,%v) vs (%v,%v)", t1, v1, t2, v2)
	}
}

// Property: with one designated writer per address and readers reading
// after a barrier-like delay, every read observes the final write, for
// random address/node assignments.
func TestSingleWriterVisibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		r := newRig()
		n := 8
		addrs := make([]Addr, n)
		writers := make([]int, n)
		vals := make([]float64, n)
		for i := range addrs {
			addrs[i] = r.st.Alloc(rng.Intn(32), 2)
			writers[i] = rng.Intn(32)
			vals[i] = float64(rng.Intn(1000))
		}
		var bd1, bd2 stats.Breakdown
		r.run(
			func(th *sim.Thread) {
				for i := range addrs {
					r.sys.StoreWord(th, writers[i], addrs[i], vals[i], &bd1, stats.BucketMemWait)
				}
			},
			func(th *sim.Thread) {
				th.Sleep(r.clk.Cycles(100000)) // after all writes complete
				for i := range addrs {
					reader := rng.Intn(32)
					if v := r.sys.Load(th, reader, addrs[i], &bd2, stats.BucketMemWait); v != vals[i] {
						t.Fatalf("trial %d: read %v, want %v", trial, v, vals[i])
					}
				}
			},
		)
	}
}

// TestReadHitAgreesWithLoad checks the probe against the Load it stands
// for: where ReadHit reports a hit it charged the hit's compute, and the
// Load then takes exactly that time and charges exactly that; where it
// reports none it charged nothing.
func TestReadHitAgreesWithLoad(t *testing.T) {
	for _, c := range []struct {
		name string
		rc   bool
		// prepare runs on node 0's thread before the probe.
		prepare func(r *testRig, th *sim.Thread, a Addr, bd *stats.Breakdown)
		hit     bool
	}{
		{"invalid", false, func(*testRig, *sim.Thread, Addr, *stats.Breakdown) {}, false},
		{"shared", false, func(r *testRig, th *sim.Thread, a Addr, bd *stats.Breakdown) {
			r.sys.Load(th, 0, a, bd, stats.BucketMemWait)
		}, true},
		{"modified", false, func(r *testRig, th *sim.Thread, a Addr, bd *stats.Breakdown) {
			r.sys.StoreWord(th, 0, a, 2, bd, stats.BucketMemWait)
		}, true},
		{"read-in-flight", false, func(r *testRig, th *sim.Thread, a Addr, bd *stats.Breakdown) {
			r.sys.Prefetch(0, a, false)
		}, false},
		{"prefetch-buffer-only", false, func(r *testRig, th *sim.Thread, a Addr, bd *stats.Breakdown) {
			r.sys.Prefetch(0, a, false)
			th.Sleep(r.clk.Cycles(200))
		}, false},
		{"shared-upgrade-in-flight", true, func(r *testRig, th *sim.Thread, a Addr, bd *stats.Breakdown) {
			r.sys.Load(th, 0, a, bd, stats.BucketMemWait)
			r.sys.StoreWord(th, 0, a+1, 2, bd, stats.BucketMemWait)
		}, true},
		{"rc-forwarded", true, func(r *testRig, th *sim.Thread, a Addr, bd *stats.Breakdown) {
			r.sys.Load(th, 0, a, bd, stats.BucketMemWait)
			r.sys.StoreWord(th, 0, a, 2, bd, stats.BucketMemWait)
		}, false},
	} {
		r := newRig()
		if c.rc {
			r = newRCRig()
		}
		a := r.st.Alloc(7, 2)
		r.st.Poke(a, 1)
		r.run(func(th *sim.Thread) {
			var bd, probe stats.Breakdown
			c.prepare(r, th, a, &bd)
			d, hit := r.sys.ReadHit(0, a, &probe)
			if hit != c.hit {
				t.Errorf("%s: ReadHit = %v, want %v", c.name, hit, c.hit)
			}
			if !hit {
				if probe != (stats.Breakdown{}) {
					t.Errorf("%s: a probe without a hit charged %v", c.name, probe)
				}
				return
			}
			if probe.T[stats.BucketCompute] != d || probe.Total() != d {
				t.Errorf("%s: the probe charged %v, want %v of compute", c.name, probe, d)
			}
			var load stats.Breakdown
			start := th.Now()
			r.sys.Load(th, 0, a, &load, stats.BucketSync)
			if th.Now()-start != d || load.T[stats.BucketCompute] != d || load.Total() != d {
				t.Errorf("%s: the Load took %v and charged %v; the probe returned %v", c.name, th.Now()-start, load, d)
			}
		})
	}
}
