package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/predict"
	"repro/internal/psync"
	"repro/internal/sim"
)

// The layer microbenchmarks measure the host cost of one operation of
// each layer: for the machine's layers, the operations that
// core.MeasureMissPenalties and core.MeasureLogP measure in simulated
// time; for the predictor, one model build and one solve. Each runs a fixed number
// of operations per batch, sized to about a tenth of a second on a
// 2-vCPU host, and reports the median of microBatches batches: single
// batches vary by 10-35% on a shared host.
const microBatches = 5

type microbench struct {
	name   string // metric name prefix; the benchmark reports name_ns
	ops    int
	allocs bool // also report name_allocs
	run    func(ops int, mt *meter)
}

var micros = []microbench{
	{"sim.dispatch", 8_000_000, false, func(ops int, mt *meter) { dispatch(ops, 1, mt) }},
	{"sim.dispatch_deep", 1_000_000, false, func(ops int, mt *meter) { dispatch(ops, 1024, mt) }},
	{"sim.handoff", 200_000, true, handoff},
	{"mesh.send", 600_000, true, func(ops int, mt *meter) { meshSend(ops, 1, mt) }},
	{"mesh.send_contended", 600_000, false, func(ops int, mt *meter) { meshSend(ops, 8, mt) }},
	{"mem.remote_read", 50_000, true, remoteRead},
	{"am.null_rtt", 20_000, true, nullRTT},
	{"psync.barrier_sm", 200, false, func(ops int, mt *meter) { barrier(ops, false, mt) }},
	{"psync.barrier_msg", 600, false, func(ops int, mt *meter) { barrier(ops, true, mt) }},
	{"predict.build", 250, true, predictBuild},
	{"predict.solve", 1_000, false, predictSolve},
}

// runMicros runs every microbenchmark and returns its metrics.
func runMicros() map[string]float64 {
	out := make(map[string]float64)
	for _, mb := range micros {
		ns := make([]float64, microBatches)
		allocs := make([]float64, microBatches)
		for b := range ns {
			runtime.GC()
			var mt meter
			mb.run(mb.ops, &mt)
			ns[b], allocs[b] = mt.ns, mt.allocs
		}
		out[mb.name+"_ns"] = median(ns)
		if mb.allocs {
			out[mb.name+"_allocs"] = median(allocs)
		}
	}
	return out
}

// meter times the measured stretch of one batch. start and stop may run
// on a simulated thread's goroutine; the engine's handoffs order them
// before the batch returns.
type meter struct {
	t          time.Time
	a          uint64
	ns, allocs float64
}

var allocObjects = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}

func heapObjects() uint64 {
	metrics.Read(allocObjects)
	return allocObjects[0].Value.Uint64() + allocObjects[1].Value.Uint64()
}

func (mt *meter) start() {
	mt.a = heapObjects()
	mt.t = time.Now()
}

func (mt *meter) stop(ops int) {
	d := time.Since(mt.t)
	mt.allocs = float64(heapObjects()-mt.a) / float64(ops)
	mt.ns = float64(d.Nanoseconds()) / float64(ops)
}

// dispatch runs ops events spread over chains self-rescheduling chains;
// with many chains pending, each dispatch sifts a deep heap.
func dispatch(ops, chains int, mt *meter) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < ops {
			e.After(sim.Time(1+n%97), tick)
		}
	}
	for i := 0; i < chains; i++ {
		e.After(sim.Time(1+i%97), tick)
	}
	mt.start()
	e.Run()
	mt.stop(int(e.Dispatched()))
}

// handoff is the engine-to-thread-to-engine round trip every simulated
// blocking operation pays.
func handoff(ops int, mt *meter) {
	e := sim.NewEngine()
	e.Spawn("t", 0, func(th *sim.Thread) {
		mt.start()
		for i := 0; i < ops; i++ {
			th.Sleep(1)
		}
		mt.stop(ops)
	})
	e.Run()
}

// meshSend delivers ops packets on the calibrated 8x4 mesh, senders at a
// time into one destination. One sender crosses four hops, (0,0) to
// (4,0); eight senders are the bottom row, whose routes share the links
// up column 4 and so contend.
func meshSend(ops, senders int, mt *meter) {
	cfg := machine.DefaultConfig()
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.Config{Width: cfg.Width, Height: cfg.Height, HopLatency: cfg.HopLatency, PsPerByte: cfg.PsPerByte})
	for i := 0; i < net.Nodes(); i++ {
		net.Attach(i, mesh.AcceptAll{})
	}
	srcs, dst := []int{0}, 4
	if senders > 1 {
		srcs = nil
		for x := 0; x < senders; x++ {
			srcs = append(srcs, net.ID(x, cfg.Height-1))
		}
	}
	mt.start()
	for sent := 0; sent < ops; sent += len(srcs) {
		for _, src := range srcs {
			net.Send(&mesh.Packet{Src: src, Dst: dst, Class: mesh.ClassAM, HdrBytes: 8, PayloadBytes: 16})
		}
		eng.Run()
	}
	mt.stop(ops)
}

// remoteRead has processor 0 read ops distinct lines homed four hops
// away, each a remote miss on a line clean at its home.
func remoteRead(ops int, mt *meter) {
	m := machine.New(machine.DefaultConfig())
	lw := m.Cfg.Mem.LineWords
	base := m.Alloc(4, ops*lw)
	m.Run(func(p *machine.Proc) {
		if p.ID != 0 {
			return
		}
		mt.start()
		for i := 0; i < ops; i++ {
			p.Read(base + mem.Addr(i*lw))
		}
		mt.stop(ops)
	})
}

// nullRTT is a ping-pong of argument-free active messages between
// processor 0 and a peer four hops away: the request handler replies,
// and the next request leaves only after the reply is handled.
func nullRTT(ops int, mt *meter) {
	const peer = 4
	m := machine.New(machine.DefaultConfig())
	served, got := 0, 0
	reply := m.AM.Register(func(*am.Ctx, []int64, []float64) { got++ })
	request := m.AM.Register(func(c *am.Ctx, _ []int64, _ []float64) {
		served++
		c.Reply(c.Src, reply, nil, nil)
	})
	m.Run(func(p *machine.Proc) {
		p.SetRecvMode(machine.RecvPoll)
		switch p.ID {
		case 0:
			mt.start()
			for i := 0; i < ops; i++ {
				p.Send(peer, request, nil, nil)
				for got <= i {
					p.WaitAndHandle()
				}
			}
			mt.stop(ops)
		case peer:
			for served < ops {
				p.WaitAndHandle()
			}
		}
	})
}

// predictInput records the causal edges of em3d under shared memory at
// tiny scale on the 32-node machine: the model the predict
// microbenchmarks build and solve.
func predictInput() predict.Input {
	j := job{App: core.EM3D, Mech: apps.SM, Scale: core.ScaleTiny, Cfg: predictJobCfg(machine.DefaultConfig())}
	a, m, err := setUp(j, 0, nil)
	if err != nil {
		panic(err) // a fixed job that core.Run also supports
	}
	return modelInput(m, m.Run(a.Body))
}

// predictBuild compiles the recorded edge stream into a solvable model.
func predictBuild(ops int, mt *meter) {
	in := predictInput()
	mt.start()
	for i := 0; i < ops; i++ {
		if _, err := predict.Build(in); err != nil {
			panic(err)
		}
	}
	mt.stop(ops)
}

// predictSolve solves the model at the points of the predict workload's
// grid in turn.
func predictSolve(ops int, mt *meter) {
	model, err := predict.Build(predictInput())
	if err != nil {
		panic(err)
	}
	n := len(gridScales)
	mt.start()
	for i := 0; i < ops; i++ {
		model.Solve(predict.Point{LatScale: gridScales[i%n], BWScale: gridScales[i/n%n]})
	}
	mt.stop(ops)
}

// barrier runs ops episodes of a 32-processor barrier: the combining-tree
// shared-memory barrier, or the message-passing tree barrier.
func barrier(ops int, msg bool, mt *meter) {
	m := machine.New(machine.DefaultConfig())
	var wait func(*machine.Proc)
	if msg {
		wait = psync.NewMsgBarrier(m).Wait
	} else {
		wait = psync.NewSMBarrier(m).Wait
	}
	m.Run(func(p *machine.Proc) {
		wait(p) // every processor has started
		if p.ID == 0 {
			mt.start()
		}
		for i := 0; i < ops; i++ {
			wait(p)
		}
		if p.ID == 0 {
			mt.stop(ops)
		}
	})
}
