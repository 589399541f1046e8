package machine

import (
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config describes one machine instance. The zero value is not runnable;
// start from DefaultConfig.
type Config struct {
	Width, Height int     // mesh dimensions; Nodes = Width*Height
	ClockMHz      float64 // processor clock (the paper scales 14-20)

	// Network (wall-clock units: the network is asynchronous).
	HopLatency sim.Time // per-router head latency
	PsPerByte  sim.Time // per-link serialization
	Torus      bool     // wraparound links in both dimensions (T3D/T3E-style)
	AdaptiveXY bool     // minimal adaptive (XY/YX) routing ablation

	Mem mem.Params

	// InterruptCheckCycles bounds interrupt latency during long computes:
	// a computing processor notices pending message interrupts at least
	// this often. New refuses a value below 1.
	InterruptCheckCycles int64

	// CrossTraffic, if non-zero, emulates reduced bisection bandwidth
	// (Figure 8): BytesPerCycle of I/O traffic is streamed across the
	// bisection for the whole run. New refuses a negative or NaN rate.
	CrossTraffic mesh.CrossTraffic

	// IdealNetOneWayCycles, if nonzero, switches shared memory to the
	// Figure 10 emulation: every coherence message takes exactly this
	// many processor cycles one-way, uniformly, with infinite bandwidth.
	// New refuses a negative value, as it does a negative TraceCap or
	// SpanCap, and a negative CritEdgeCap with CritPath.
	IdealNetOneWayCycles int64

	// TraceCap, if nonzero, records the last TraceCap protocol and
	// message events into Machine.Trace for post-run inspection.
	TraceCap int

	// SpanCap, if nonzero, records the last SpanCap thread-state spans
	// (run vs blocked intervals per processor thread) into Machine.Spans
	// for timeline export.
	SpanCap int

	// CritPath enables the critical-path profiler: causal edges (message
	// send→receive, miss→fill, directory txn begin→grant, barrier
	// arrive→release) are recorded into a bounded ring, and the
	// post-run pass attributes every cycle of the last-finishing
	// processor's timeline to {compute, mem stall, net latency, net
	// bandwidth, sync} in Result.CritPath. Purely passive — enabling it
	// never changes simulated timing.
	CritPath bool

	// CritEdgeCap, if nonzero, overrides the causal-edge ring capacity
	// the critical-path profiler retains (default
	// obs.DefaultCritEdgeCap). The prediction layer raises it so the
	// whole edge stream of an instrumented run survives as a dependency
	// DAG; the top-edge summary in Result.CritPath only grows more exact
	// with a larger cap. Meaningful only with CritPath. Passive like
	// CritPath itself: it sizes an observation ring, never timing.
	CritEdgeCap int

	// FaultSpec, if nonempty, enables deterministic fault injection (see
	// fault.Parse for the grammar). Kept as the canonical spec string —
	// not a parsed struct — so Config stays comparable for the sweep
	// runner's memoization cache. Only discrete-fault clauses (jitter,
	// outage, stall) are allowed here; noise clauses go in NoiseSpec.
	FaultSpec string
	// FaultSeed seeds the fault schedule; meaningful only with FaultSpec.
	FaultSeed uint64

	// NoiseSpec, if nonempty, enables seeded stochastic noise injection:
	// hostnoise, netnoise, and delay clauses (see fault.Parse). Kept
	// separate from FaultSpec so noise seeds sweep independently of fault
	// schedules; like FaultSpec it is the canonical spec string so Config
	// stays comparable.
	NoiseSpec string
	// NoiseSeed seeds the noise streams; meaningful only with NoiseSpec.
	NoiseSeed uint64

	// EventLimit overrides the runaway-simulation guard (dispatched-event
	// cap); 0 uses the default of 2e9 events.
	EventLimit uint64
	// DeadlineCycles, if nonzero, arms the no-forward-progress watchdog:
	// the run fails with a diagnostic dump if simulated time would pass
	// this many processor cycles with processors still unfinished.
	DeadlineCycles int64
}

// DefaultConfig returns the calibrated 32-node Alewife: 8x4 mesh at
// 20 MHz, 18 bytes/cycle bisection, ~15-cycle 24-byte one-way latency.
func DefaultConfig() Config {
	return Config{
		Width: 8, Height: 4,
		ClockMHz:             20,
		HopLatency:           40 * sim.Nanosecond,    // 0.8 cycles at 20 MHz
		PsPerByte:            22223 * sim.Picosecond, // 2.25 bytes/cycle/link
		Mem:                  mem.DefaultParams(),
		InterruptCheckCycles: 100,
	}
}

// MaxNodes is the largest supported machine, bounded by the directory's
// sharer-bitset capacity (see mem.MaxNodes).
const MaxNodes = mem.MaxNodes

// Geometry factors nodes into the canonical P×Q wormhole-mesh shape:
// the widest near-square grid, width >= height, matching Alewife's 8x4
// at 32 nodes and growing square-ish for the scale-out sizes
// (64 -> 8x8, 128 -> 16x8, 256 -> 16x16, 512 -> 32x16). Height is the
// largest divisor of nodes not exceeding sqrt(nodes); a prime count
// degenerates to an Nx1 path. Errors when nodes is outside
// [1, MaxNodes].
func Geometry(nodes int) (width, height int, err error) {
	if nodes < 1 || nodes > MaxNodes {
		return 0, 0, fmt.Errorf("machine: %d nodes outside the supported range [1, %d]", nodes, MaxNodes)
	}
	height = 1
	for h := 2; h*h <= nodes; h++ {
		if nodes%h == 0 {
			height = h
		}
	}
	return nodes / height, height, nil
}

// ConfigForNodes returns the calibrated Alewife configuration scaled to
// an arbitrary node count: per-node parameters (clock, link bandwidth,
// hop latency, memory costs) are unchanged — so per-node link
// bandwidth is constant while bisection bandwidth per node shrinks and
// average hop count grows with the machine, which is exactly the
// scale-out regime the Figure S1 experiment probes. ConfigForNodes(32)
// equals DefaultConfig.
func ConfigForNodes(nodes int) (Config, error) {
	w, h, err := Geometry(nodes)
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	return cfg, nil
}

// Nodes returns the node count.
func (c Config) Nodes() int { return c.Width * c.Height }

// Mesh returns the interconnect part of c: the mesh New builds, and the
// geometry every hop count and bisection figure is read from.
func (c Config) Mesh() mesh.Config {
	return mesh.Config{
		Width: c.Width, Height: c.Height,
		HopLatency: c.HopLatency, PsPerByte: c.PsPerByte,
		Torus: c.Torus, AdaptiveXY: c.AdaptiveXY,
	}
}

// Machine is one simulated multiprocessor instance. Build it with New,
// set up application state (allocations, handlers), then call Run exactly
// once.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Clk   sim.Clock
	Net   *mesh.Network
	Store *mem.Store
	Mem   *mem.System
	AM    *am.System
	Procs []*Proc

	// Trace holds the last Cfg.TraceCap events when tracing is enabled.
	Trace *obs.Ring[obs.Event]

	// Spans holds the last Cfg.SpanCap thread-state spans when span
	// recording is enabled; nil otherwise.
	Spans *obs.Ring[obs.Span]

	// Crit is the critical-path recorder when Cfg.CritPath is set; nil
	// otherwise.
	Crit *obs.CritRecorder

	// Faults is the live fault and noise injector; nil unless
	// Cfg.FaultSpec or Cfg.NoiseSpec injects anything.
	Faults *fault.Injector

	ran    bool
	doneN  int
	finish sim.Time
}

// EngineFor returns the engine that executes node's events. Every node
// shares the machine's one engine, m.Eng.
func (m *Machine) EngineFor(node int) *sim.Engine { return m.Eng }

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Nodes() < 1 {
		panic(fmt.Sprintf("machine: bad dimensions %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.Nodes() > MaxNodes {
		panic(fmt.Sprintf("machine: %dx%d = %d nodes exceeds the %d-node directory capacity",
			cfg.Width, cfg.Height, cfg.Nodes(), MaxNodes))
	}
	nonNegative("IdealNetOneWayCycles", cfg.IdealNetOneWayCycles)
	nonNegative("TraceCap", int64(cfg.TraceCap))
	nonNegative("SpanCap", int64(cfg.SpanCap))
	if cfg.InterruptCheckCycles < 1 {
		// A computing processor would check for interrupts every 0
		// cycles, forever, or schedule its chunks in the past.
		panic(fmt.Sprintf("machine: InterruptCheckCycles %d below 1", cfg.InterruptCheckCycles))
	}
	if r := cfg.CrossTraffic.BytesPerCycle; r < 0 || math.IsNaN(r) {
		// Run starts no traffic for such a rate, yet the result would
		// report it subtracted from the bisection.
		panic(fmt.Sprintf("machine: CrossTraffic.BytesPerCycle %v is negative or NaN", r))
	}
	eng := sim.NewEngine()
	clk := sim.NewClock(cfg.ClockMHz)
	net := mesh.New(eng, cfg.Mesh())
	store := mem.NewStore(cfg.Nodes())
	msys := mem.NewSystem(eng, net, clk, cfg.Mem, store)
	asys := am.NewSystem(eng, net, clk)
	m := &Machine{
		Cfg: cfg, Eng: eng, Clk: clk, Net: net,
		Store: store, Mem: msys, AM: asys,
	}
	for i := 0; i < cfg.Nodes(); i++ {
		net.Attach(i, asys.Endpoint(i)) // AM queueing; coherence passes through
		p := &Proc{M: m, ID: i}
		p.wake = p.wakeNow
		m.Procs = append(m.Procs, p)
	}
	if cfg.IdealNetOneWayCycles > 0 {
		msys.SetIdealNetwork(clk.Cycles(cfg.IdealNetOneWayCycles))
	}
	if cfg.TraceCap > 0 {
		m.Trace = obs.NewRing[obs.Event](cfg.TraceCap)
		msys.SetTrace(m.Trace)
		asys.SetTrace(m.Trace)
	}
	if cfg.SpanCap > 0 {
		spans := obs.NewRing[obs.Span](cfg.SpanCap)
		m.Spans = spans
		eng.SetSpanObserver(func(th *sim.Thread, start, end sim.Time, blocked bool, reason string, arg int64) {
			spans.Add(obs.Span{
				Thread: th.Name(), Start: start, End: end,
				Blocked: blocked, Reason: reason, Arg: arg,
			})
		})
	}
	if cfg.CritPath {
		nonNegative("CritEdgeCap", int64(cfg.CritEdgeCap))
		cap := cfg.CritEdgeCap
		if cap == 0 {
			cap = obs.DefaultCritEdgeCap
		}
		m.Crit = obs.NewCritRecorder(cfg.Nodes(), cap)
		msys.SetCritPath(m.Crit)
	}
	in, err := fault.New(cfg.FaultSpec, cfg.FaultSeed, cfg.NoiseSpec, cfg.NoiseSeed)
	if err != nil {
		panic("machine: " + err.Error())
	}
	if in != nil {
		m.Faults = in
		net.SetFaultInjector(in)
		asys.SetFaultInjector(in)
	}
	return m
}

// nonNegative refuses a negative option, naming its field, where the
// machine would otherwise read it as zero, that is off or the default.
func nonNegative(field string, v int64) {
	if v < 0 {
		panic(fmt.Sprintf("machine: negative %s %d", field, v))
	}
}

// Alloc reserves words of shared memory homed at node.
func (m *Machine) Alloc(node, words int) mem.Addr { return m.Store.Alloc(node, words) }

// Result summarizes one run.
type Result struct {
	Time              sim.Time          // wall completion time (slowest processor)
	Cycles            int64             // Time in processor cycles
	PerProc           []stats.Breakdown // per-processor time breakdown
	Breakdown         stats.Breakdown   // machine-wide sum of PerProc
	Volume            stats.Volume      // application bytes injected, by kind
	Events            stats.Events      // mem + am counters merged
	Bisection         float64           // native bisection bandwidth, bytes/cycle
	EmulatedBisection float64           // native minus cross-traffic, bytes/cycle
	Links             []mesh.LinkLoad   // the run's three hottest mesh links

	// CritPath is the critical-path attribution when Cfg.CritPath is
	// set; nil otherwise. All fields exported so it survives JSON
	// round-trips (disk cache, runlog).
	CritPath *obs.CritStats

	// DoneCycles records when each processor's body returned, in cycles.
	// The per-node completion profile is what the delay-propagation
	// experiment reads: an injected delay on one node shifts completions
	// outward by hop distance (or not) depending on the mechanism.
	DoneCycles []int64

	// Faults counts the faults and noise actually injected; the zero
	// value when the config carries neither FaultSpec nor NoiseSpec.
	Faults fault.Stats
}

// Run executes body on every processor concurrently (SPMD) and returns
// the run summary. It may be called once per Machine.
func (m *Machine) Run(body func(p *Proc)) Result {
	if m.ran {
		panic("machine: Run called twice; build a fresh Machine per run")
	}
	m.ran = true
	if m.Cfg.CrossTraffic.BytesPerCycle > 0 {
		m.Net.StartCrossTraffic(m.Cfg.CrossTraffic, m.Clk)
	}
	n := len(m.Procs)
	for _, p := range m.Procs {
		p := p
		p.th = m.Eng.Spawn(fmt.Sprintf("proc%d", p.ID), 0, func(th *sim.Thread) {
			body(p)
			p.doneAt = th.Now()
			m.doneN++
			if m.doneN == n {
				m.finish = th.Now()
				m.Net.StopCrossTraffic()
			}
		})
	}
	limit := m.Cfg.EventLimit
	if limit == 0 {
		limit = 2_000_000_000
	}
	m.Eng.SetEventLimit(limit)
	if m.Cfg.DeadlineCycles > 0 {
		m.Eng.SetDeadline(m.Clk.Cycles(m.Cfg.DeadlineCycles))
	}
	m.runEngine()
	// The run is over: drop the protocol and message records pooled for
	// it, and the processors' op lists, so a machine kept for its
	// results holds none of them.
	m.Mem.ReleasePools()
	m.AM.ReleasePools()
	for _, p := range m.Procs {
		p.ops = nil
	}
	if m.doneN != n {
		d := m.Eng.Diagnose(sim.StallDeadlock)
		d.Notes = append(d.Notes, fmt.Sprintf("only %d/%d processors finished", m.doneN, n))
		panic(m.enrich(d))
	}
	if err := m.Mem.CheckInvariants(true); err != nil {
		panic(fmt.Sprintf("machine: post-run %v", err))
	}
	res := Result{
		Time:    m.finish,
		Cycles:  m.Clk.ToCycles(m.finish),
		Volume:  m.Net.Volume(),
		Events:  m.Mem.Events().Plus(m.AM.Events()),
		PerProc: make([]stats.Breakdown, n),
	}
	res.DoneCycles = make([]int64, n)
	for i, p := range m.Procs {
		res.PerProc[i] = p.BD
		res.Breakdown = res.Breakdown.Plus(p.BD)
		res.Events = res.Events.Plus(p.Ev)
		res.DoneCycles[i] = m.Clk.ToCycles(p.doneAt)
	}
	if m.Faults != nil {
		res.Faults = m.Faults.Stats()
	}
	if m.Crit != nil {
		// The critical path of a barrier-terminated SPMD run is the
		// last-finishing processor's timeline (ties: lowest ID).
		crit := 0
		for i, p := range m.Procs {
			if p.doneAt > m.Procs[crit].doneAt {
				crit = i
			}
		}
		res.CritPath = m.Crit.Summarize(m.Clk, crit, m.Procs[crit].BD, critTopEdges)
	}
	res.Bisection = m.Net.BisectionBytesPerCycle(m.Clk)
	//lint:allow simlint/intmath result-reporting field (Figure 8 x-axis); computed after the run ends
	res.EmulatedBisection = res.Bisection - m.Cfg.CrossTraffic.BytesPerCycle
	res.Links = m.Net.TopLinks(m.finish, 3)
	return res
}

// runEngine drives the event loop, enriching any engine-level stall
// diagnostic (event limit, deadline, liveness) with machine-level state
// before re-panicking: busy directory transactions, occupied mesh links,
// and backed-up NI queues.
func (m *Machine) runEngine() {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(*sim.StallError); ok {
				panic(m.enrich(se))
			}
			panic(r)
		}
	}()
	m.Eng.Run()
}

// maxDumpNotes bounds each subsystem's contribution to a stall dump.
const maxDumpNotes = 8

// critTopEdges bounds the longest-edge summary carried in Result.CritPath.
const critTopEdges = 5

// enrich appends subsystem diagnostics to an engine stall error.
func (m *Machine) enrich(se *sim.StallError) *sim.StallError {
	for _, s := range m.Mem.BusyDump(maxDumpNotes) {
		se.Notes = append(se.Notes, "mem: "+s)
	}
	for _, s := range m.Net.OccupiedLinks(se.Now, maxDumpNotes) {
		se.Notes = append(se.Notes, "net: "+s)
	}
	for _, s := range m.AM.QueueDump(maxDumpNotes) {
		se.Notes = append(se.Notes, "am: "+s)
	}
	if m.Faults != nil && m.Faults.NoiseEnabled() {
		// Distinguish a noise-induced stall from a protocol deadlock: a
		// huge injected total means the watchdog likely tripped on noise.
		st := m.Faults.Stats()
		se.Notes = append(se.Notes, fmt.Sprintf(
			"noise: %d samples, %d ps injected (host %d samples/%d ps, net %d samples/%d ps, delays %d/%d ps)",
			st.Samples(), st.InjectedPs(), st.HostNoiseSamples, st.HostNoisePs,
			st.NetNoiseSamples, st.NetNoisePs, st.DelaysFired, st.DelayPs))
	}
	return se
}
