package psync

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// refSpin is the flag loop that SMBarrier.Wait and SMCentralBarrier.Wait
// ran on the thread before Proc.SpinWhileEqual: the reference the spin
// must match.
func refSpin(p *machine.Proc, a mem.Addr, v float64) {
	backoff := int64(flagBackoff)
	for p.ReadSync(a) == v {
		p.SpinCycles(backoff)
		if backoff < flagBackoffMax {
			backoff *= 2
		}
	}
}

// refTreeWait is SMBarrier.Wait with refSpin.
func refTreeWait(b *SMBarrier, p *machine.Proc) {
	p.Ev.BarrierArrivals++
	arriveAt := p.Now()
	traceEvent(b.m, p, obs.KBarrier, 0, 0)
	myGen := p.ReadSync(b.gens[0])
	b.arrive(p, p.ID/barrierArity)
	refSpin(p, b.gens[0], myGen)
	critBarrier(b.m, p, arriveAt)
}

// refCentralWait is SMCentralBarrier.Wait with refSpin.
func refCentralWait(b *SMCentralBarrier, p *machine.Proc) {
	p.Ev.BarrierArrivals++
	arriveAt := p.Now()
	myGen := p.ReadSync(b.gen)
	last := p.RMWSync(b.counter, func(v float64) float64 { return v + 1 })
	if int(last) == b.n {
		p.WriteSync(b.counter, 0)
		p.Fence()
		p.WriteSync(b.gen, myGen+1)
		critBarrier(b.m, p, arriveAt)
		return
	}
	refSpin(p, b.gen, myGen)
	critBarrier(b.m, p, arriveAt)
}

// spinCase is one machine the spin equivalence tests run on.
type spinCase struct {
	name string
	cfg  func(*machine.Config)
	// invalidate has each episode's last arrival write the flag line's
	// other word midway through the others' spin: their copies are
	// invalidated, so a poll misses and reads the unchanged flag again.
	invalidate bool
	// prefetch issues a read prefetch of the flag at every node every 13
	// cycles, so that a node whose copy was invalidated polls with a
	// prefetch of the line in flight.
	prefetch bool
}

func rc(c *machine.Config)    { c.Mem.Consistency = mem.RC }
func ideal(c *machine.Config) { c.IdealNetOneWayCycles = 100 }
func cross(c *machine.Config) {
	c.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64, BytesPerCycle: 16}
}

var spinCases = []spinCase{
	{name: "sc"},
	{name: "rc", cfg: rc},
	{name: "sc-invalidate", invalidate: true},
	{name: "rc-invalidate", cfg: rc, invalidate: true},
	{name: "sc-prefetch", invalidate: true, prefetch: true},
	{name: "rc-prefetch", cfg: rc, invalidate: true, prefetch: true},
	{name: "ideal", cfg: ideal, invalidate: true},
	{name: "cross16", cfg: cross, invalidate: true},
}

// spinOutcome is everything a run leaves that the spin must not change.
type spinOutcome struct {
	Res        machine.Result
	Spans      []obs.Span
	Dispatched uint64
}

// runBarrierEpisodes runs six staggered barrier episodes on c's machine,
// waiting with wait, a barrier built on that machine by build, whose
// generation flag is flag.
func runBarrierEpisodes(t *testing.T, c spinCase, build func(m *machine.Machine) (wait func(*machine.Proc), flag mem.Addr)) spinOutcome {
	t.Helper()
	cfg := machine.DefaultConfig()
	if c.cfg != nil {
		c.cfg(&cfg)
	}
	cfg.SpanCap = 1 << 18
	cfg.CritPath = true
	m := machine.New(cfg)
	wait, flag := build(m)
	finished := 0
	if c.prefetch {
		var tick func()
		tick = func() {
			if finished == len(m.Procs) {
				return
			}
			for n := range m.Procs {
				m.Mem.Prefetch(n, flag, false)
			}
			m.Eng.After(m.Clk.Cycles(13), tick)
		}
		m.Eng.At(0, tick)
	}
	res := m.Run(func(p *machine.Proc) {
		defer func() { finished++ }()
		for ep := 0; ep < 6; ep++ {
			if p.ID == ep*7%len(m.Procs) {
				p.Compute(500)
				if c.invalidate {
					p.WriteSync(flag+1, float64(ep))
				}
				p.Compute(400)
			} else {
				p.Compute(int64((p.ID*37+ep*11)%29) * 13)
			}
			wait(p)
		}
	})
	if want := 6 * int64(len(m.Procs)); res.Events.BarrierArrivals != want {
		t.Fatalf("%s: %d barrier arrivals, want %d", c.name, res.Events.BarrierArrivals, want)
	}
	return spinOutcome{Res: res, Spans: m.Spans.Items(), Dispatched: m.Eng.Dispatched()}
}

// TestSpinWhileEqualMatchesThreadLoop checks both shared-memory barriers
// against their pre-spin reference: the whole Result, every span and the
// dispatched event count must be equal.
func TestSpinWhileEqualMatchesThreadLoop(t *testing.T) {
	tree := func(ref bool) func(m *machine.Machine) (func(*machine.Proc), mem.Addr) {
		return func(m *machine.Machine) (func(*machine.Proc), mem.Addr) {
			b := NewSMBarrier(m)
			if ref {
				return func(p *machine.Proc) { refTreeWait(b, p) }, b.gens[0]
			}
			return b.Wait, b.gens[0]
		}
	}
	central := func(ref bool) func(m *machine.Machine) (func(*machine.Proc), mem.Addr) {
		return func(m *machine.Machine) (func(*machine.Proc), mem.Addr) {
			b := NewSMCentralBarrier(m)
			if ref {
				return func(p *machine.Proc) { refCentralWait(b, p) }, b.gen
			}
			return b.Wait, b.gen
		}
	}
	for _, c := range spinCases {
		for _, kind := range []struct {
			name  string
			build func(ref bool) func(m *machine.Machine) (func(*machine.Proc), mem.Addr)
		}{{"tree", tree}, {"central", central}} {
			got, want := runBarrierEpisodes(t, c, kind.build(false)), runBarrierEpisodes(t, c, kind.build(true))
			checkSameOutcome(t, c.name+"/"+kind.name, got, want)
		}
	}
}

// checkSameOutcome reports where got differs from the reference want.
func checkSameOutcome(t *testing.T, name string, got, want spinOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.Res, want.Res) {
		t.Errorf("%s: Result differs: %d cycles, breakdown %v, events %+v; reference %d cycles, breakdown %v, events %+v",
			name, got.Res.Cycles, got.Res.Breakdown, got.Res.Events, want.Res.Cycles, want.Res.Breakdown, want.Res.Events)
	}
	if got.Dispatched != want.Dispatched {
		t.Errorf("%s: %d events dispatched, reference %d", name, got.Dispatched, want.Dispatched)
	}
	if !reflect.DeepEqual(got.Spans, want.Spans) {
		n := 0
		for n < len(got.Spans) && n < len(want.Spans) && got.Spans[n] == want.Spans[n] {
			n++
		}
		t.Errorf("%s: spans differ from span %d of %d (reference %d)", name, n, len(got.Spans), len(want.Spans))
	}
}
