package psync

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/stats"
)

func TestSMBarrierSynchronizes(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	b := NewSMBarrier(m)
	var maxBefore, minAfter int64 = 0, 1 << 62
	m.Run(func(p *machine.Proc) {
		p.Compute(int64(p.ID) * 100) // staggered arrivals
		if c := p.NowCycles(); c > maxBefore {
			maxBefore = c
		}
		b.Wait(p)
		if c := p.NowCycles(); c < minAfter {
			minAfter = c
		}
	})
	if minAfter < maxBefore {
		t.Errorf("a processor left the barrier at %d before the last arrival at %d",
			minAfter, maxBefore)
	}
}

func TestSMBarrierReusable(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	b := NewSMBarrier(m)
	counts := make([]int, 32)
	m.Run(func(p *machine.Proc) {
		for it := 0; it < 5; it++ {
			counts[p.ID]++
			b.Wait(p)
			// All processors must have the same count after each barrier.
			for _, c := range counts {
				if c != counts[p.ID] {
					t.Errorf("iteration skew: %v", counts)
					return
				}
			}
			b.Wait(p)
		}
	})
}

func TestSMBarrierGeneratesCoherenceTraffic(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	b := NewSMBarrier(m)
	res := m.Run(func(p *machine.Proc) { b.Wait(p) })
	if res.Events.Invalidations == 0 {
		t.Error("SM barrier produced no invalidations")
	}
	if res.Volume.Total() == 0 {
		t.Error("SM barrier produced no network volume")
	}
	if res.Breakdown.T[stats.BucketSync] == 0 {
		t.Error("SM barrier charged no sync time")
	}
	if res.Events.BarrierArrivals != 32 {
		t.Errorf("barrier arrivals = %d, want 32", res.Events.BarrierArrivals)
	}
}

func TestMsgBarrierSynchronizes(t *testing.T) {
	for _, mode := range []machine.RecvMode{machine.RecvInterrupt, machine.RecvPoll} {
		m := machine.New(machine.DefaultConfig())
		b := NewMsgBarrier(m)
		var maxBefore, minAfter int64 = 0, 1 << 62
		m.Run(func(p *machine.Proc) {
			p.SetRecvMode(mode)
			p.Compute(int64(p.ID) * 137)
			if c := p.NowCycles(); c > maxBefore {
				maxBefore = c
			}
			b.Wait(p)
			if c := p.NowCycles(); c < minAfter {
				minAfter = c
			}
		})
		if minAfter < maxBefore {
			t.Errorf("mode %v: left barrier at %d before last arrival %d",
				mode, minAfter, maxBefore)
		}
	}
}

func TestMsgBarrierReusableManyIterations(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	b := NewMsgBarrier(m)
	phase := make([]int, 32)
	m.Run(func(p *machine.Proc) {
		p.SetRecvMode(machine.RecvPoll)
		for it := 0; it < 10; it++ {
			phase[p.ID] = it
			b.Wait(p)
			for q, ph := range phase {
				if ph < it {
					t.Errorf("iter %d: proc %d saw proc %d still in phase %d", it, p.ID, q, ph)
					return
				}
			}
		}
	})
}

func TestMsgBarrierUsesMessagesNotSharedMemory(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	b := NewMsgBarrier(m)
	res := m.Run(func(p *machine.Proc) {
		p.SetRecvMode(machine.RecvPoll)
		b.Wait(p)
	})
	if res.Events.MessagesSent == 0 {
		t.Error("message barrier sent no messages")
	}
	if res.Events.RemoteMisses() != 0 {
		t.Errorf("message barrier caused %d remote misses", res.Events.RemoteMisses())
	}
}

func TestMsgBarrierCheaperThanSMBarrier(t *testing.T) {
	// On Alewife-like parameters a log-depth message barrier should beat
	// a 32-way central counter barrier.
	smCycles := func() int64 {
		m := machine.New(machine.DefaultConfig())
		b := NewSMBarrier(m)
		return m.Run(func(p *machine.Proc) { b.Wait(p) }).Cycles
	}()
	msgCycles := func() int64 {
		m := machine.New(machine.DefaultConfig())
		b := NewMsgBarrier(m)
		return m.Run(func(p *machine.Proc) {
			p.SetRecvMode(machine.RecvInterrupt)
			b.Wait(p)
		}).Cycles
	}()
	if msgCycles >= smCycles {
		t.Logf("note: msg barrier %d cycles, SM barrier %d cycles", msgCycles, smCycles)
	}
	if smCycles < 500 {
		t.Errorf("SM barrier suspiciously cheap: %d cycles", smCycles)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	l := newSpinLock(m, 0)
	shared := m.Alloc(0, 4) // two lines of protected data
	m.Run(func(p *machine.Proc) {
		for i := 0; i < 5; i++ {
			l.Acquire(p)
			// Non-atomic two-word critical section: read both, bump both.
			a := p.Read(shared)
			b := p.Read(shared + 2)
			p.Compute(20)
			p.Write(shared, a+1)
			p.Write(shared+2, b+1)
			l.Release(p)
		}
	})
	if got := m.Store.Peek(shared); got != 160 {
		t.Errorf("word A = %v, want 160", got)
	}
	if got := m.Store.Peek(shared + 2); got != 160 {
		t.Errorf("word B = %v, want 160", got)
	}
}

func TestSpinLockCountsContention(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	l := newSpinLock(m, 0)
	res := m.Run(func(p *machine.Proc) {
		l.Acquire(p)
		p.Compute(200) // hold it a while to force contention
		l.Release(p)
	})
	if res.Events.LockAcquires != 32 {
		t.Errorf("acquires = %d, want 32", res.Events.LockAcquires)
	}
	if res.Events.LockSpins == 0 {
		t.Error("no contention recorded despite serialized critical sections")
	}
	if res.Breakdown.T[stats.BucketSync] == 0 {
		t.Error("no sync time charged")
	}
}

func TestReleaseUnheldLockPanics(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	l := newSpinLock(m, 0)
	defer func() {
		if recover() == nil {
			t.Error("releasing unheld lock did not panic")
		}
	}()
	m.Run(func(p *machine.Proc) {
		if p.ID == 0 {
			l.Release(p)
		}
	})
}

func TestLockAtColocation(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	data := m.Alloc(3, 2) // lock word shares the line with the datum
	l := LockAt(m, data)
	m.Run(func(p *machine.Proc) {
		l.Acquire(p)
		v := p.Read(data + 1)
		p.Write(data+1, v+1)
		l.Release(p)
	})
	if got := m.Store.Peek(data + 1); got != 32 {
		t.Errorf("colocated counter = %v, want 32", got)
	}
}

func TestSpinLockRoughFairness(t *testing.T) {
	// With the directory's FIFO request queue, repeated acquisitions
	// should be spread across processors, not monopolized by the
	// closest node.
	m := machine.New(machine.DefaultConfig())
	l := newSpinLock(m, 0)
	counts := make([]int, 32)
	m.Run(func(p *machine.Proc) {
		for i := 0; i < 6; i++ {
			l.Acquire(p)
			counts[p.ID]++
			p.Compute(30)
			l.Release(p)
		}
	})
	for pr, c := range counts {
		if c != 6 {
			t.Fatalf("proc %d acquired %d times, want 6", pr, c)
		}
	}
}

func TestMixedBarrierKindsCoexist(t *testing.T) {
	// SM and message barriers in the same program (coherence and AM
	// traffic share the network and endpoints).
	m := machine.New(machine.DefaultConfig())
	smB := NewSMBarrier(m)
	msgB := NewMsgBarrier(m)
	phase := make([]int, 32)
	m.Run(func(p *machine.Proc) {
		p.SetRecvMode(machine.RecvPoll)
		for it := 0; it < 3; it++ {
			phase[p.ID]++
			smB.Wait(p)
			for _, ph := range phase {
				if ph != phase[p.ID] {
					t.Error("skew after SM barrier")
					return
				}
			}
			msgB.Wait(p)
		}
	})
}
