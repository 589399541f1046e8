package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Sweep benchmarks run on a fresh core.Runner per iteration so run
// memoization cannot turn later iterations into cache lookups.
// Each benchmark regenerates its artifact's data and reports the headline
// quantity as a custom metric, so `go test -bench . -benchmem` doubles as
// the reproduction harness. Workloads run at reduced scales (documented
// in EXPERIMENTS.md); use cmd/paperbench for larger runs.

import (
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/machines"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/psync"
)

// benchSweepMechs is the mechanism subset for sweep benchmarks (the full
// five-mechanism sweeps run via cmd/paperbench).
var benchSweepMechs = []Mechanism{SM, SMPrefetch, MPPoll}

// BenchmarkFig1Regions classifies the bisection sweep's performance
// regions (the measured version of the conceptual Figure 1).
func BenchmarkFig1Regions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := core.NewRunner(0).Sweep(core.EM3D, core.ScaleSweep,
			[]Mechanism{SM, MPPoll}, core.BisectionAxis(machine.DefaultConfig(), []float64{0, 8, 14, 16}))
		if err != nil {
			b.Fatal(err)
		}
		// Bisection sweeps run in decreasing-bandwidth (increasing
		// stress) order already.
		regions := core.ClassifyRegions(pts, SM)
		b.ReportMetric(float64(len(regions)), "regions")
	}
}

// BenchmarkFig2Regions classifies the latency sweep's performance regions
// (the measured version of the conceptual Figure 2).
func BenchmarkFig2Regions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := core.NewRunner(0).Sweep(core.EM3D, core.ScaleSweep,
			[]Mechanism{SM, MPPoll}, core.IdealLatencyAxis(machine.DefaultConfig(), []int64{15, 50, 100, 200}))
		if err != nil {
			b.Fatal(err)
		}
		regions := core.ClassifyRegions(pts, SM)
		b.ReportMetric(float64(len(regions)), "regions")
	}
}

// BenchmarkFig3MissPenalties regenerates the Alewife cost table.
func BenchmarkFig3MissPenalties(b *testing.B) {
	var mp MissPenalties
	for i := 0; i < b.N; i++ {
		mp = MeasureMissPenalties(DefaultMachine())
	}
	b.ReportMetric(mp.LocalRead, "local-read-cycles")
	b.ReportMetric(mp.RemoteCleanRead, "remote-clean-cycles")
	b.ReportMetric(mp.LimitLESSRead, "limitless-read-cycles")
	b.ReportMetric(mp.NullAMCycles, "null-am-cycles")
}

// BenchmarkFig4Summary regenerates the per-application five-mechanism
// comparison; the reported metric is the SM/MP-poll runtime ratio.
func BenchmarkFig4Summary(b *testing.B) {
	for _, app := range Apps {
		app := app
		b.Run(string(app), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				var sm, mp int64
				for _, mech := range Mechanisms {
					r := core.MustRun(core.RunConfig{App: app, Mech: mech,
						Scale: core.ScaleSweep, Machine: machine.DefaultConfig()})
					switch mech {
					case SM:
						sm = r.Cycles
					case MPPoll:
						mp = r.Cycles
					}
				}
				ratio = float64(sm) / float64(mp)
			}
			b.ReportMetric(ratio, "SM/MP-ratio")
		})
	}
}

// BenchmarkFig5Volume regenerates the communication-volume comparison;
// the metric is the SM/MP volume ratio (the paper: up to ~6x).
func BenchmarkFig5Volume(b *testing.B) {
	for _, app := range Apps {
		app := app
		b.Run(string(app), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				sm := core.MustRun(core.RunConfig{App: app, Mech: SM,
					Scale: core.ScaleSweep, Machine: machine.DefaultConfig()})
				mp := core.MustRun(core.RunConfig{App: app, Mech: MPPoll,
					Scale: core.ScaleSweep, Machine: machine.DefaultConfig()})
				ratio = float64(sm.Volume.Total()) / float64(mp.Volume.Total())
			}
			b.ReportMetric(ratio, "SM/MP-volume")
		})
	}
}

// BenchmarkFig7MsgLen regenerates the cross-traffic message-length
// sensitivity; the metric is the max/min runtime spread across sizes.
func BenchmarkFig7MsgLen(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		pts, err := core.NewRunner(0).Sweep(core.EM3D, core.ScaleSweep, []Mechanism{SM},
			core.MsgLenAxis(machine.DefaultConfig(), 10, []int{16, 64, 256}))
		if err != nil {
			b.Fatal(err)
		}
		min, max := int64(1<<62), int64(0)
		for _, pt := range pts {
			c := pt.Results[SM].Cycles
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		spread = float64(max) / float64(min)
	}
	b.ReportMetric(spread, "max/min-spread")
}

// BenchmarkFig8Bisection regenerates the bisection sweep per app; the
// metric is shared memory's extra slowdown (in cycles) relative to
// message passing at the lowest emulated bisection.
func BenchmarkFig8Bisection(b *testing.B) {
	for _, app := range Apps {
		app := app
		b.Run(string(app), func(b *testing.B) {
			var extra float64
			for i := 0; i < b.N; i++ {
				pts, err := core.NewRunner(0).Sweep(app, core.ScaleSweep, benchSweepMechs,
					core.BisectionAxis(machine.DefaultConfig(), []float64{0, 12, 16}))
				if err != nil {
					b.Fatal(err)
				}
				first, last := pts[0], pts[len(pts)-1]
				smSlow := last.Results[SM].Cycles - first.Results[SM].Cycles
				mpSlow := last.Results[MPPoll].Cycles - first.Results[MPPoll].Cycles
				extra = float64(smSlow - mpSlow)
			}
			b.ReportMetric(extra, "SM-extra-slowdown-cycles")
		})
	}
}

// BenchmarkFig9ClockScaling regenerates the clock-scaling sweep; the
// metric is SM's cycle gain from the relatively faster network at 14 MHz.
func BenchmarkFig9ClockScaling(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		pts, err := core.NewRunner(0).Sweep(core.EM3D, core.ScaleSweep, benchSweepMechs,
			core.ClockAxis(machine.DefaultConfig(), []float64{20, 14}))
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(pts[0].Results[SM].Cycles - pts[1].Results[SM].Cycles)
	}
	b.ReportMetric(gain, "SM-gain-cycles")
}

// BenchmarkFig10ContextSwitch regenerates the uniform-latency emulation;
// the metric is the SM/MP ratio at 100-cycle one-way latency (the
// paper's Chandra et al. reconciliation point).
func BenchmarkFig10ContextSwitch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := core.NewRunner(0).Sweep(core.EM3D, core.ScaleSweep, benchSweepMechs,
			core.IdealLatencyAxis(machine.DefaultConfig(), []int64{15, 100}))
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(pts[1].Results[SM].Cycles) / float64(pts[1].Results[MPPoll].Cycles)
	}
	b.ReportMetric(ratio, "SM/MP-at-100cyc")
}

// BenchmarkTable1 regenerates the machine-parameter table; the metric is
// Alewife's bisection bytes/cycle.
func BenchmarkTable1(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		rows := machines.Table1()
		v = rows[0].BytesPerCycle
	}
	b.ReportMetric(v, "alewife-bytes/cycle")
}

// BenchmarkTable2 regenerates the local-miss-relative table; the metric
// is Alewife's bisection bytes per local miss (paper: 198).
func BenchmarkTable2(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		v = machines.Alewife().BisPerLocalMiss()
	}
	b.ReportMetric(v, "alewife-bytes/lcl-miss")
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------------

// BenchmarkAblationFullMapDirectory contrasts LimitLESS-5 with a full-map
// directory (no software traps) on EM3D shared memory: the metric is the
// runtime saved by full-map, i.e. what directory overflow costs.
func BenchmarkAblationFullMapDirectory(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		base := core.MustRun(core.RunConfig{App: core.EM3D, Mech: SM,
			Scale: core.ScaleSweep, Machine: machine.DefaultConfig()})
		cfg := machine.DefaultConfig()
		cfg.Mem.HWPointers = 64 // full map: never traps
		full := core.MustRun(core.RunConfig{App: core.EM3D, Mech: SM,
			Scale: core.ScaleSweep, Machine: cfg})
		saved = float64(base.Cycles-full.Cycles) / float64(base.Cycles)
	}
	b.ReportMetric(100*saved, "limitless-cost-%")
}

// BenchmarkAblationBarrier contrasts the combining-tree shared-memory
// barrier with the naive central-counter barrier.
func BenchmarkAblationBarrier(b *testing.B) {
	measure := func(central bool) int64 {
		m := machine.New(machine.DefaultConfig())
		var wait func(p *machine.Proc)
		if central {
			bar := psync.NewSMCentralBarrier(m)
			wait = bar.Wait
		} else {
			bar := psync.NewSMBarrier(m)
			wait = bar.Wait
		}
		res := m.Run(func(p *machine.Proc) {
			for k := 0; k < 20; k++ {
				wait(p)
			}
		})
		return res.Cycles / 20
	}
	var tree, central int64
	for i := 0; i < b.N; i++ {
		tree = measure(false)
		central = measure(true)
	}
	b.ReportMetric(float64(tree), "tree-cycles/barrier")
	b.ReportMetric(float64(central), "central-cycles/barrier")
}

// BenchmarkAblationInterruptInterval varies the interrupt-check bound: a
// looser bound delays message delivery, hurting the dependence-heavy
// ICCG (the paper's interrupt-asynchrony effect).
func BenchmarkAblationInterruptInterval(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		fast := machine.DefaultConfig()
		fast.InterruptCheckCycles = 50
		slow := machine.DefaultConfig()
		slow.InterruptCheckCycles = 800
		rf := core.MustRun(core.RunConfig{App: core.ICCG, Mech: MPInterrupt,
			Scale: core.ScaleTiny, Machine: fast})
		rs := core.MustRun(core.RunConfig{App: core.ICCG, Mech: MPInterrupt,
			Scale: core.ScaleTiny, Machine: slow})
		slowdown = float64(rs.Cycles) / float64(rf.Cycles)
	}
	b.ReportMetric(slowdown, "800cyc/50cyc-ratio")
}

// BenchmarkAblationCrossMsgSize contrasts cross-traffic granularities at
// a fixed consumed bandwidth (the Figure 7 design decision to use 64B).
func BenchmarkAblationCrossMsgSize(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := core.NewRunner(0).Sweep(core.EM3D, core.ScaleTiny, []Mechanism{SM},
			core.MsgLenAxis(machine.DefaultConfig(), 10, []int{16, 256}))
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(pts[1].Results[SM].Cycles) / float64(pts[0].Results[SM].Cycles)
	}
	b.ReportMetric(ratio, "256B/16B-runtime-ratio")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// processor-cycles per second of host time for a communication-heavy run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.MustRun(core.RunConfig{App: core.EM3D, Mech: SM,
			Scale: core.ScaleTiny, Machine: machine.DefaultConfig()})
	}
}

// BenchmarkAblationRelaxedConsistency contrasts sequential consistency
// with write-buffered release consistency on EM3D shared memory at
// 100-cycle uniform latency — the Section 2 latency-tolerance technique
// Alewife did not implement. The metric is RC's saving; it is modest
// because blocking reads, not writes, dominate shared-memory stalls
// (consistent with Holt et al., the paper's reference [21]).
func BenchmarkAblationRelaxedConsistency(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		mk := func(c mem.Consistency) int64 {
			cfg := machine.DefaultConfig()
			cfg.Mem.Consistency = c
			cfg.IdealNetOneWayCycles = 100
			return core.MustRun(core.RunConfig{App: core.EM3D, Mech: SM,
				Scale: core.ScaleSweep, Machine: cfg}).Cycles
		}
		sc := mk(mem.SC)
		rc := mk(mem.RC)
		saved = 100 * float64(sc-rc) / float64(sc)
	}
	b.ReportMetric(saved, "rc-saving-%")
}

// BenchmarkEmulatedMachines runs EM3D on three emulated Table 1 machines
// and reports their SM/MP ratios — the paper's conclusion ("network
// latency will worsen for shared memory") as a measurement.
func BenchmarkEmulatedMachines(b *testing.B) {
	for _, name := range []string{"MIT Alewife", "Stanford DASH", "Stanford FLASH"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				m, err := machines.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				cfg, _, err := machines.ConfigFor(m)
				if err != nil {
					b.Fatal(err)
				}
				sm := core.MustRun(core.RunConfig{App: core.EM3D, Mech: SM,
					Scale: core.ScaleTiny, Machine: cfg})
				mp := core.MustRun(core.RunConfig{App: core.EM3D, Mech: MPPoll,
					Scale: core.ScaleTiny, Machine: cfg})
				ratio = float64(sm.Cycles) / float64(mp.Cycles)
			}
			b.ReportMetric(ratio, "SM/MP-ratio")
		})
	}
}

// BenchmarkAblationUpdateProtocol contrasts the invalidation protocol
// with a write-through update protocol on EM3D shared memory. The paper's
// Section 5.1 volume argument (>=4 messages per produced value) is
// invalidation-specific; the metrics report how much volume and runtime
// the update variant changes on a producer-consumer application.
func BenchmarkAblationUpdateProtocol(b *testing.B) {
	var volRatio, runRatio float64
	for i := 0; i < b.N; i++ {
		inval := core.MustRun(core.RunConfig{App: core.EM3D, Mech: SM,
			Scale: core.ScaleSweep, Machine: machine.DefaultConfig()})
		cfg := machine.DefaultConfig()
		cfg.Mem.Protocol = mem.ProtocolUpdate
		upd := core.MustRun(core.RunConfig{App: core.EM3D, Mech: SM,
			Scale: core.ScaleSweep, Machine: cfg})
		volRatio = float64(upd.Volume.Total()) / float64(inval.Volume.Total())
		runRatio = float64(upd.Cycles) / float64(inval.Cycles)
	}
	b.ReportMetric(volRatio, "update/inval-volume")
	b.ReportMetric(runRatio, "update/inval-runtime")
}

// BenchmarkAblationAdaptiveRouting contrasts dimension-ordered routing
// (Alewife's EMRC) with minimal XY/YX adaptive routing on EM3D shared
// memory under heavy cross-traffic, where escape paths matter most.
func BenchmarkAblationAdaptiveRouting(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		mk := func(adaptive bool) int64 {
			cfg := machine.DefaultConfig()
			cfg.AdaptiveXY = adaptive
			cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: core.CrossMsgBytes, BytesPerCycle: 14}
			return core.MustRun(core.RunConfig{App: core.EM3D, Mech: SM,
				Scale: core.ScaleSweep, Machine: cfg}).Cycles
		}
		det := mk(false)
		ada := mk(true)
		gain = 100 * float64(det-ada) / float64(det)
	}
	b.ReportMetric(gain, "adaptive-saving-%")
}

// BenchmarkAblationValueLayout contrasts EM3D's padded value layout (one
// value per 16-byte line, the default) with a packed layout (two per
// line). Packing halves cold read misses but pushes value lines to ~5
// sharers, overflowing LimitLESS-5 on nearly every line every phase —
// the layout decision interacts with the directory design.
func BenchmarkAblationValueLayout(b *testing.B) {
	var ratio, trapRatio float64
	for i := 0; i < b.N; i++ {
		run := func(packed bool) core.RunResult {
			a, err := core.NewAppSized(core.EM3D, core.ScaleSweep, core.BaseProcs, false)
			if err != nil {
				b.Fatal(err)
			}
			a.(*em3d.App).SetPackedLayout(packed)
			m := machine.New(machine.DefaultConfig())
			a.Setup(m, SM)
			res := m.Run(a.Body)
			return core.RunResult{Result: res, App: core.EM3D, Mech: SM}
		}
		padded := run(false)
		packed := run(true)
		ratio = float64(packed.Cycles) / float64(padded.Cycles)
		trapRatio = float64(packed.Events.LimitLESSTraps+1) / float64(padded.Events.LimitLESSTraps+1)
	}
	b.ReportMetric(ratio, "packed/padded-runtime")
	b.ReportMetric(trapRatio, "packed/padded-traps")
}
