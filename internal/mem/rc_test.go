package mem

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newRCRig() *testRig {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.Config{Width: 8, Height: 4, HopLatency: 40000, PsPerByte: 22223})
	clk := sim.NewClock(20)
	st := NewStore(32)
	par := DefaultParams()
	par.Consistency = RC
	sys := NewSystem(eng, net, clk, par, st)
	return &testRig{eng: eng, net: net, clk: clk, st: st, sys: sys}
}

func TestRCStoreDoesNotBlock(t *testing.T) {
	r := newRCRig()
	a := r.st.Alloc(7, 2) // remote
	var storeCyc float64
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		storeCyc = r.cycles(th, func() {
			r.sys.StoreWord(th, 0, a, 5.0, &bd, stats.BucketMemWait)
		})
	})
	// SC would stall ~42 cycles; RC retires in ~1.
	if storeCyc > 5 {
		t.Errorf("RC remote store took %.1f cycles, want ~1 (buffered)", storeCyc)
	}
	// The value still lands (after the machine quiesces).
	if got := r.st.Peek(a); got != 5.0 {
		t.Errorf("buffered store never applied: %v", got)
	}
}

func TestRCReadOwnWriteForwards(t *testing.T) {
	r := newRCRig()
	a := r.st.Alloc(7, 2)
	var got float64
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		r.sys.StoreWord(th, 0, a, 9.0, &bd, stats.BucketMemWait)
		// Immediately read back: must see own store via forwarding.
		got = r.sys.Load(th, 0, a, &bd, stats.BucketMemWait)
	})
	if got != 9.0 {
		t.Errorf("read-own-write = %v, want 9", got)
	}
}

func TestRCFenceDrains(t *testing.T) {
	r := newRCRig()
	addrs := make([]Addr, 6)
	for i := range addrs {
		addrs[i] = r.st.Alloc((i*5+3)%32, 2)
	}
	var bd stats.Breakdown
	var fenceCyc float64
	r.run(func(th *sim.Thread) {
		for i, a := range addrs {
			r.sys.StoreWord(th, 0, a, float64(i+1), &bd, stats.BucketMemWait)
		}
		fenceCyc = r.cycles(th, func() {
			r.sys.Fence(th, 0, &bd, stats.BucketMemWait)
		})
		// After the fence every value is globally visible.
		for i, a := range addrs {
			if got := r.st.Peek(a); got != float64(i+1) {
				t.Errorf("addr %d = %v after fence, want %d", i, got, i+1)
			}
		}
	})
	if fenceCyc < 10 {
		t.Errorf("fence of 6 remote stores took %.1f cycles; should wait for completions", fenceCyc)
	}
}

func TestRCWriteBufferBackpressure(t *testing.T) {
	r := newRCRig()
	n := writeBufferDepth + 4
	addrs := make([]Addr, n)
	for i := range addrs {
		addrs[i] = r.st.Alloc((i*3+1)%32, 2)
	}
	var bd stats.Breakdown
	var total float64
	r.run(func(th *sim.Thread) {
		total = r.cycles(th, func() {
			for i, a := range addrs {
				r.sys.StoreWord(th, 0, a, float64(i), &bd, stats.BucketMemWait)
			}
		})
	})
	// With depth 8 and 12 stores, some stores must have stalled.
	if total < 30 {
		t.Errorf("12 buffered remote stores took %.1f cycles; buffer depth not enforced", total)
	}
}

func TestRCAtomicsFence(t *testing.T) {
	r := newRCRig()
	data := r.st.Alloc(5, 2)
	flag := r.st.Alloc(9, 2)
	var seen float64 = -1
	var bd1, bd2 stats.Breakdown
	r.run(
		func(th *sim.Thread) {
			r.sys.StoreWord(th, 0, data, 42, &bd1, stats.BucketMemWait)
			// RMW fences the buffered store before setting the flag.
			r.sys.RMW(th, 0, flag, func(float64) float64 { return 1 }, &bd1, stats.BucketSync)
		},
		func(th *sim.Thread) {
			for r.sys.Load(th, 16, flag, &bd2, stats.BucketSync) != 1 {
				th.Sleep(r.clk.Cycles(50))
			}
			seen = r.sys.Load(th, 16, data, &bd2, stats.BucketMemWait)
		},
	)
	if seen != 42 {
		t.Errorf("consumer saw %v after acquire, want 42 (release ordering broken)", seen)
	}
}

func TestRCLastStoreWins(t *testing.T) {
	r := newRCRig()
	a := r.st.Alloc(7, 2)
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		r.sys.StoreWord(th, 0, a, 1, &bd, stats.BucketMemWait)
		r.sys.StoreWord(th, 0, a, 2, &bd, stats.BucketMemWait)
		r.sys.StoreWord(th, 0, a, 3, &bd, stats.BucketMemWait)
		r.sys.Fence(th, 0, &bd, stats.BucketMemWait)
	})
	if got := r.st.Peek(a); got != 3 {
		t.Errorf("final value %v, want 3", got)
	}
}

func TestSCFenceIsNoOp(t *testing.T) {
	r := newRig() // SC rig
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		start := th.Now()
		r.sys.Fence(th, 0, &bd, stats.BucketMemWait)
		if th.Now() != start {
			t.Error("SC fence consumed time")
		}
	})
}

func TestConsistencyString(t *testing.T) {
	if SC.String() != "sequential-consistency" || RC.String() != "release-consistency" {
		t.Error("consistency strings wrong")
	}
}
