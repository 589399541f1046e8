package machine

import (
	"testing"

	"repro/internal/am"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/stats"
)

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes() != 32 {
		t.Errorf("nodes = %d, want 32", cfg.Nodes())
	}
	m := New(cfg)
	if got := m.Net.Config().BisectionBytesPerCycle(m.Clk); got < 17 || got > 19 {
		t.Errorf("bisection = %.2f bytes/cycle, want ~18", got)
	}
}

func TestRunComputeOnly(t *testing.T) {
	m := New(DefaultConfig())
	res := m.Run(func(p *Proc) { p.Compute(1000) })
	if res.Cycles < 1000 || res.Cycles > 1010 {
		t.Errorf("runtime = %d cycles, want ~1000", res.Cycles)
	}
	if res.Breakdown.T[stats.BucketCompute] != m.Clk.Cycles(1000*32) {
		t.Errorf("compute sum = %v, want %v",
			res.Breakdown.T[stats.BucketCompute], m.Clk.Cycles(1000*32))
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := New(DefaultConfig())
	m.Run(func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	m.Run(func(p *Proc) {})
}

func TestSharedMemoryThroughProcs(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Alloc(0, 64)
	res := m.Run(func(p *Proc) {
		// Everyone increments a distinct word, then reads a neighbor's.
		p.Write(a+2*int64Addr(p.ID), float64(p.ID))
		p.Compute(500) // let writes settle
		nb := (p.ID + 1) % 32
		if v := p.Read(a + 2*int64Addr(nb)); v != float64(nb) {
			t.Errorf("proc %d read %v, want %d", p.ID, v, nb)
		}
	})
	if res.Events.RemoteMisses() == 0 {
		t.Error("no remote misses recorded")
	}
}

func int64Addr(i int) mem.Addr { return mem.Addr(i) }

func TestInterruptLatencyBound(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	var sentAt, handledAt int64
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		handledAt = m.Clk.ToCycles(c.Now())
	})
	m.Run(func(p *Proc) {
		switch p.ID {
		case 0:
			p.Compute(200)
			sentAt = p.NowCycles()
			p.Send(1, h, nil, nil)
		case 1:
			p.SetRecvMode(RecvInterrupt)
			p.Compute(3000) // long compute; interrupt must cut in
		}
	})
	if handledAt == 0 {
		t.Fatal("message never handled")
	}
	lat := handledAt - sentAt
	if lat > cfg.InterruptCheckCycles+200 {
		t.Errorf("interrupt latency = %d cycles, want <= ~%d", lat, cfg.InterruptCheckCycles+200)
	}
}

func TestPollModeDefersMessages(t *testing.T) {
	m := New(DefaultConfig())
	var handledAt int64
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		handledAt = m.Clk.ToCycles(c.Now())
	})
	var pollAt int64
	m.Run(func(p *Proc) {
		switch p.ID {
		case 0:
			p.Send(1, h, nil, nil)
		case 1:
			p.SetRecvMode(RecvPoll)
			p.Compute(5000) // message arrives early but must wait
			pollAt = p.NowCycles()
			p.Poll()
		}
	})
	if handledAt < pollAt {
		t.Errorf("polled message handled at %d, before the poll at %d", handledAt, pollAt)
	}
}

func TestCrossTrafficSlowsSharedMemoryRun(t *testing.T) {
	run := func(x float64) int64 {
		cfg := DefaultConfig()
		if x > 0 {
			cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64, BytesPerCycle: x}
		}
		m := New(cfg)
		a := m.Alloc(0, 2)
		res := m.Run(func(p *Proc) {
			for i := 0; i < 40; i++ {
				p.RMW(a, func(v float64) float64 { return v + 1 })
			}
		})
		return res.Cycles
	}
	base := run(0)
	loaded := run(16) // leaves ~2 bytes/cycle of bisection
	if loaded <= base {
		t.Errorf("runtime with cross-traffic %d <= base %d", loaded, base)
	}
}

func TestIdealNetworkConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdealNetOneWayCycles = 200
	m := New(cfg)
	a := m.Alloc(5, 2)
	res := m.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Read(a)
		}
	})
	// One remote read: >= 2*200 cycles.
	if res.Cycles < 400 {
		t.Errorf("ideal-net remote read finished in %d cycles, want >= 400", res.Cycles)
	}
	if res.Events.RemoteMissesCln != 1 {
		t.Errorf("remote misses = %d, want 1", res.Events.RemoteMissesCln)
	}
}

func TestResultBisectionFields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64, BytesPerCycle: 10}
	m := New(cfg)
	res := m.Run(func(p *Proc) { p.Compute(100) })
	if res.EmulatedBisection >= res.Bisection {
		t.Errorf("emulated bisection %.1f not below native %.1f",
			res.EmulatedBisection, res.Bisection)
	}
	if res.EmulatedBisection < 7 || res.EmulatedBisection > 9 {
		t.Errorf("emulated bisection = %.1f, want ~8", res.EmulatedBisection)
	}
}

func TestDeterministicRun(t *testing.T) {
	run := func() (int64, stats.Volume) {
		m := New(DefaultConfig())
		a := m.Alloc(0, 64)
		res := m.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.RMW(a+int64Addr((p.ID+i)%16)*2, func(v float64) float64 { return v + 1 })
			}
		})
		return res.Cycles, res.Volume
	}
	c1, v1 := run()
	c2, v2 := run()
	if c1 != c2 || v1 != v2 {
		t.Errorf("nondeterministic runs: %d/%v vs %d/%v", c1, v1, c2, v2)
	}
}

func TestRecvModeString(t *testing.T) {
	if RecvInterrupt.String() != "interrupt" || RecvPoll.String() != "poll" {
		t.Error("RecvMode strings wrong")
	}
}

func TestTraceCapturesProtocolAndMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceCap = 1024
	m := New(cfg)
	a := m.Alloc(5, 2)
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {})
	m.Run(func(p *Proc) {
		switch p.ID {
		case 0:
			p.Read(a)
			p.Send(1, h, nil, nil)
		case 1:
			p.SetRecvMode(RecvPoll)
			p.WaitAndHandle()
		}
	})
	if m.Trace == nil || m.Trace.Total() == 0 {
		t.Fatal("no trace recorded")
	}
	count := func(kind obs.EventKind, node int) int {
		n := 0
		for _, e := range m.Trace.Items() {
			if e.Kind == kind && e.Node == node {
				n++
			}
		}
		return n
	}
	if count(obs.KMissStart, 0) == 0 {
		t.Error("no miss-start events for node 0")
	}
	if count(obs.KMsgSend, 0) != 1 {
		t.Error("expected exactly one msg-send from node 0")
	}
	if count(obs.KMsgRecv, 1) != 1 {
		t.Error("expected exactly one msg-recv at node 1")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Alloc(3, 2)
	m.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Read(a)
		}
	})
	if m.Trace != nil {
		t.Error("trace allocated without TraceCap")
	}
}
