package machine

import (
	"testing"

	"repro/internal/am"
	"repro/internal/stats"
)

func TestChargeGatherCost(t *testing.T) {
	m := New(DefaultConfig())
	var elapsed int64
	m.Run(func(p *Proc) {
		if p.ID != 0 {
			return
		}
		start := p.NowCycles()
		p.ChargeGather(2) // one 16-byte line: the paper's ~60 cycles
		elapsed = p.NowCycles() - start
	})
	if elapsed != 60 {
		t.Errorf("gather of one line = %d cycles, want 60", elapsed)
	}
}

func TestWaitAndHandleChargesSync(t *testing.T) {
	m := New(DefaultConfig())
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {})
	var bd stats.Breakdown
	m.Run(func(p *Proc) {
		switch p.ID {
		case 0:
			p.Compute(2000)
			p.Send(1, h, nil, nil)
		case 1:
			p.SetRecvMode(RecvPoll)
			p.WaitAndHandle() // idle from ~0 to ~2000: sync time
			bd = p.BD
		}
	})
	syncCycles := m.Clk.ToCycles(bd.T[stats.BucketSync])
	if syncCycles < 1500 {
		t.Errorf("waiting charged only %d cycles of sync", syncCycles)
	}
}

func TestPrefetchChargesIssueCost(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Alloc(5, 2)
	var issue int64
	m.Run(func(p *Proc) {
		if p.ID != 0 {
			return
		}
		start := p.NowCycles()
		p.Prefetch(a, false)
		issue = p.NowCycles() - start
	})
	if issue != prefetchIssueCycles {
		t.Errorf("prefetch issue = %d cycles, want %d", issue, prefetchIssueCycles)
	}
}

func TestComputeNegativePanics(t *testing.T) {
	m := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("negative compute did not panic")
		}
	}()
	m.Run(func(p *Proc) { p.Compute(-1) })
}

func TestUpdateAtomicAcrossProcs(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Alloc(0, 2) // [value, counter] on one line
	m.Store.Poke(a+1, 32)
	zeroSeen := 0
	res := m.Run(func(p *Proc) {
		p.Update(a, func() {
			m.Store.Poke(a, m.Store.Peek(a)+float64(p.ID))
			c := m.Store.Peek(a+1) - 1
			m.Store.Poke(a+1, c)
			if c == 0 {
				zeroSeen++
			}
		})
	})
	if zeroSeen != 1 {
		t.Errorf("counter reached zero %d times, want exactly once", zeroSeen)
	}
	if got := m.Store.Peek(a); got != float64(31*32/2) {
		t.Errorf("sum = %v, want %d", got, 31*32/2)
	}
	if res.Events.RemoteMisses() == 0 {
		t.Error("updates generated no coherence traffic")
	}
}
