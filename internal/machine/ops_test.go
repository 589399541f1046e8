package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/am"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// refDo makes list's ops on the thread, one Read, Prefetch or Compute
// call each, and appends the values read to vals: the reference Do must
// match.
func refDo(p *Proc, list []op, vals []float64) []float64 {
	for _, x := range list {
		switch x.kind {
		case opRead:
			vals = append(vals, p.Read(x.addr()))
		case opPrefetch:
			p.Prefetch(x.addr(), x.write)
		case opCompute:
			p.Compute(x.arg)
		}
	}
	return vals
}

// opsOf returns p's op list filled with list's ops.
func opsOf(p *Proc, list []op) *Ops {
	o := p.Ops()
	for _, x := range list {
		switch x.kind {
		case opRead:
			o.Read(x.addr())
		case opPrefetch:
			o.Prefetch(x.addr(), x.write)
		case opCompute:
			o.Compute(x.arg)
		}
	}
	return o
}

// runDo makes list's ops as one run and returns a copy of the values
// read.
func runDo(p *Proc, list []op) []float64 {
	return append([]float64(nil), p.Do(opsOf(p, list))...)
}

// doRound is one step of a processor's plan: an optional store, then an
// op list, then an optional message.
type doRound struct {
	store mem.Addr // written before the run, or NilAddr
	ops   []op
	send  int // the node sent a message after the run, or -1
}

// doPlan is every processor's rounds, drawn before the run so that both
// sides of a comparison make the same calls.
type doPlan struct {
	rounds [][]doRound
	expect []int // messages each node receives
}

// Sizes of the test machine's shared regions.
const (
	doOwnWords = 32 // words per node that it and others read, write and prefetch
	doHotLines = 4  // lines that any node writes, invalidating the others' copies
)

// newDoPlan draws the plan for a machine of n nodes: reads of the node's
// own words, of other nodes', of the hot lines others write, of the
// clock word and of the word just stored (which RC forwards from the
// write buffer); read and write prefetches; and computes of 0 cycles, a
// few, and several InterruptCheckCycles.
func newDoPlan(seed int64, n, rounds int, own []mem.Addr, hot []mem.Addr, clock mem.Addr) doPlan {
	rng := rand.New(rand.NewSource(seed))
	pl := doPlan{rounds: make([][]doRound, n), expect: make([]int, n)}
	anyWord := func() mem.Addr {
		return own[rng.Intn(n)] + mem.Addr(rng.Intn(doOwnWords))
	}
	for id := range pl.rounds {
		for r := 0; r < rounds; r++ {
			rd := doRound{store: mem.NilAddr, send: -1}
			if rng.Intn(2) == 0 {
				if rng.Intn(2) == 0 {
					rd.store = hot[rng.Intn(len(hot))]
				} else {
					rd.store = own[id] + mem.Addr(rng.Intn(doOwnWords))
				}
			}
			for k := 1 + rng.Intn(20); k > 0; k-- {
				switch x := rng.Intn(100); {
				case x < 45:
					a := anyWord()
					switch y := rng.Intn(10); {
					case y < 3:
						a = own[id] + mem.Addr(rng.Intn(doOwnWords))
					case y < 5:
						a = hot[rng.Intn(len(hot))]
					case y < 7:
						a = clock
					case y < 9 && rd.store != mem.NilAddr:
						a = rd.store
					}
					rd.ops = append(rd.ops, op{kind: opRead, arg: int64(a)})
				case x < 65:
					rd.ops = append(rd.ops, op{kind: opPrefetch, arg: int64(anyWord()), write: rng.Intn(3) == 0})
				default:
					c := int64(0)
					switch y := rng.Intn(10); {
					case y < 5:
						c = 1 + rng.Int63n(40)
					case y < 8:
						c = 101 + rng.Int63n(300)
					}
					rd.ops = append(rd.ops, op{kind: opCompute, arg: c})
				}
			}
			if rng.Intn(3) == 0 {
				rd.send = (id + 1 + rng.Intn(n-1)) % n
				pl.expect[rd.send]++
			}
			pl.rounds[id] = append(pl.rounds[id], rd)
		}
	}
	return pl
}

// doOutcome is everything a run leaves that Do must not change.
type doOutcome struct {
	Res        Result
	Spans      []obs.Span
	Trace      []obs.Event
	Dispatched uint64
	Vals       [][]float64 // per node, every value its runs read
	Panic      string      // the run's panic, if it failed
}

// doCase is one machine the op-run equivalence test runs on.
type doCase struct {
	name string
	cfg  func(*Config)
	poll bool
}

// doCases crosses SC and RC, interrupt and poll reception, and the
// plain network, the ideal network, 16 B/cycle of cross-traffic, and
// host noise with a one-shot delay.
func doCases() []doCase {
	nets := []struct {
		name string
		cfg  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"ideal", func(c *Config) { c.IdealNetOneWayCycles = 60 }},
		{"cross16", func(c *Config) { c.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64, BytesPerCycle: 16} }},
		{"noise", func(c *Config) {
			c.NoiseSpec = "hostnoise:node=*,dist=exp,mean=300ns,prob=0.5;netnoise:node=*,dist=exp,mean=50ns;delay:node=*,at=20us,dur=2us"
			c.NoiseSeed = 5
		}},
	}
	var cs []doCase
	for _, cons := range []mem.Consistency{mem.SC, mem.RC} {
		for _, poll := range []bool{false, true} {
			for _, nt := range nets {
				cons, nt := cons, nt
				name := "sc"
				if cons == mem.RC {
					name = "rc"
				}
				if poll {
					name += "-poll-"
				} else {
					name += "-int-"
				}
				cs = append(cs, doCase{name: name + nt.name, poll: poll, cfg: func(c *Config) {
					c.Mem.Consistency = cons
					nt.cfg(c)
				}})
			}
		}
	}
	return cs
}

// runDoPlan runs a seeded plan on c's machine, making each round's ops
// with do.
func runDoPlan(t *testing.T, c doCase, seed int64, do func(*Proc, []op) []float64) (out doOutcome) {
	t.Helper()
	cfg := DefaultConfig()
	c.cfg(&cfg)
	cfg.SpanCap = 1 << 16
	cfg.TraceCap = 1 << 14
	cfg.CritPath = true
	m := New(cfg)
	n := cfg.Nodes()
	own := make([]mem.Addr, n)
	for i := range own {
		own[i] = m.Alloc(i, doOwnWords)
	}
	hotBase := m.Alloc(n/2, doHotLines*cfg.Mem.LineWords)
	hot := make([]mem.Addr, doHotLines)
	for i := range hot {
		hot[i] = hotBase + mem.Addr(i*cfg.Mem.LineWords)
	}
	// The clock word changes every cycle without coherence, as a device
	// would write it: a coherent store cannot land within a hit's cycle
	// of a read that found the line valid, so only this word tells a
	// load that reads at its wake from one that reads at its probe.
	clock := m.Alloc(0, cfg.Mem.LineWords)
	pl := newDoPlan(seed, n, 12, own, hot, clock)
	recv := make([]int, n)
	h := m.AM.Register(func(ctx *am.Ctx, args []int64, vals []float64) { recv[ctx.Node]++ })
	finished := 0
	var tick func()
	tick = func() {
		if finished == n {
			return
		}
		m.Store.Poke(clock, m.Store.Peek(clock)+1)
		m.Eng.After(m.Clk.Cycles(1), tick)
	}
	m.Eng.At(0, tick)
	vals := make([][]float64, n)
	defer func() {
		// A failed run is compared by its panic and all it did until then.
		if r := recover(); r != nil {
			out.Panic = fmt.Sprint(r)
		}
		out.Spans, out.Trace, out.Dispatched, out.Vals = m.Spans.Items(), m.Trace.Items(), m.Eng.Dispatched(), vals
	}()
	out.Res = m.Run(func(p *Proc) {
		if c.poll {
			p.SetRecvMode(RecvPoll)
		}
		for r, rd := range pl.rounds[p.ID] {
			if rd.store != mem.NilAddr {
				p.Write(rd.store, float64(p.ID*1000+r))
			}
			vals[p.ID] = append(vals[p.ID], do(p, rd.ops)...)
			if rd.send >= 0 {
				p.Send(rd.send, h, []int64{int64(r)}, nil)
			}
			if c.poll && r%3 == 2 {
				p.Poll()
			}
		}
		for recv[p.ID] < pl.expect[p.ID] {
			p.WaitAndHandle()
		}
		finished++
	})
	return out
}

// TestDoMatchesCalls checks op runs against the same ops made with Read,
// Prefetch and Compute on the thread: the whole Result, every span, the
// trace ring, the dispatched event count and every value read must be
// equal. Seed 3's plan fails the post-run coherence check on both sides
// (a write prefetch of a line the node holds Shared leaves that copy in
// its cache), so there the panic and everything before it are compared.
func TestDoMatchesCalls(t *testing.T) {
	for _, c := range doCases() {
		for seed := int64(1); seed <= 4; seed++ {
			ref := func(p *Proc, list []op) []float64 { return refDo(p, list, nil) }
			got, want := runDoPlan(t, c, seed, runDo), runDoPlan(t, c, seed, ref)
			checkSameRun(t, c.name, seed, got, want)
		}
	}
}

// checkSameRun reports where got differs from the reference want.
func checkSameRun(t *testing.T, name string, seed int64, got, want doOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.Res, want.Res) {
		t.Errorf("%s seed %d: Result differs: %d cycles, breakdown %v, events %+v; reference %d cycles, breakdown %v, events %+v",
			name, seed, got.Res.Cycles, got.Res.Breakdown, got.Res.Events, want.Res.Cycles, want.Res.Breakdown, want.Res.Events)
	}
	if got.Dispatched != want.Dispatched {
		t.Errorf("%s seed %d: %d events dispatched, reference %d", name, seed, got.Dispatched, want.Dispatched)
	}
	if !reflect.DeepEqual(got.Spans, want.Spans) {
		t.Errorf("%s seed %d: spans differ (%d, reference %d)", name, seed, len(got.Spans), len(want.Spans))
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Errorf("%s seed %d: trace differs (%d events, reference %d)", name, seed, len(got.Trace), len(want.Trace))
	}
	if !reflect.DeepEqual(got.Vals, want.Vals) {
		t.Errorf("%s seed %d: values read differ", name, seed)
	}
	if got.Panic != want.Panic {
		t.Errorf("%s seed %d: run failed with %q, reference with %q", name, seed, got.Panic, want.Panic)
	}
}

// TestDoRefusesReentry: a Do, or a new list, while a run of the same
// processor is in flight panics, as does a Do of another processor's
// list.
func TestDoRefusesReentry(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Alloc(1, 2)
	refused := make([]bool, 3)
	h := m.AM.Register(func(ctx *am.Ctx, args []int64, vals []float64) {})
	m.Run(func(p *Proc) {
		switch p.ID {
		case 0:
			o := p.Ops()
			o.Read(a) // a remote miss: the thread makes it
			m.Eng.After(1, func() {
				defer func() { refused[0] = recover() != nil }()
				p.Do(o)
			})
			m.Eng.After(2, func() {
				defer func() { refused[1] = recover() != nil }()
				p.Ops()
			})
			p.Do(o)
			p.Send(1, h, nil, nil)
		case 1:
			defer func() { refused[2] = recover() != nil }()
			p.WaitAndHandle()
			p.Do(m.Procs[0].ops)
		}
	})
	for i, what := range []string{"Do during a run", "Ops during a run", "Do of another processor's list"} {
		if !refused[i] {
			t.Errorf("%s did not panic", what)
		}
	}
	for _, p := range m.Procs {
		if p.ops != nil {
			t.Fatalf("processor %d holds its op list after Run", p.ID)
		}
	}
}

// hitRun builds, on a one-node machine, 16 reads of words the node holds
// and 16 computes, interleaved.
func hitRun(m *Machine) (warm func(*Proc), list []op) {
	a := m.Alloc(0, 32)
	for k := 0; k < 16; k++ {
		list = append(list, op{kind: opRead, arg: int64(a) + int64(2*k)}, op{kind: opCompute, arg: 20})
	}
	warm = func(p *Proc) {
		for k := 0; k < 16; k++ {
			p.Read(a + mem.Addr(2*k))
		}
	}
	return warm, list
}

// oneNode builds a one-node machine.
func oneNode() *Machine {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 1, 1
	return New(cfg)
}

// TestDoAllocatesNothing: once a processor's list has grown, a run of
// plain hits and computes allocates nothing.
func TestDoAllocatesNothing(t *testing.T) {
	m := oneNode()
	warm, list := hitRun(m)
	var allocs float64
	m.Run(func(p *Proc) {
		warm(p)
		allocs = testing.AllocsPerRun(100, func() { p.Do(opsOf(p, list)) })
	})
	if allocs != 0 {
		t.Errorf("a run of 16 hits and 16 computes allocates %v times", allocs)
	}
}

// BenchmarkDo times 16 plain-hit reads and 16 computes made as one run
// (run) and with one call each on the thread (thread).
func BenchmarkDo(b *testing.B) {
	var buf []float64
	for _, c := range []struct {
		name string
		do   func(*Proc, []op)
	}{
		{"run", func(p *Proc, list []op) { p.Do(opsOf(p, list)) }},
		{"thread", func(p *Proc, list []op) { buf = refDo(p, list, buf[:0]) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			m := oneNode()
			warm, list := hitRun(m)
			m.Run(func(p *Proc) {
				warm(p)
				c.do(p, list) // grow the buffers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.do(p, list)
				}
				b.StopTimer()
			})
		})
	}
}
