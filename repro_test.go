package repro

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/sim"
)

func TestRunDefaultsMachine(t *testing.T) {
	res, err := Run(Config{App: EM3D, Mechanism: SM, Scale: ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	if res.Bisection < 17 || res.Bisection > 19 {
		t.Errorf("default machine bisection %.1f, want ~18", res.Bisection)
	}
}

func TestRunAllAppsAllMechanisms(t *testing.T) {
	for _, app := range Apps {
		for _, mech := range Mechanisms {
			res, err := Run(Config{App: app, Mechanism: mech, Scale: ScaleTiny})
			if err != nil {
				t.Fatalf("%s/%s: %v", app, mech, err)
			}
			if res.Cycles <= 0 {
				t.Fatalf("%s/%s: empty result", app, mech)
			}
		}
	}
}

// TestBreakdownCoversEveryCycle: every processor's four Figure 4 buckets
// sum to its completion time, exactly to the cycle, for every app and
// mechanism, both unperturbed and under faults, noise and an injected
// delay. A stall no bucket records (or one recorded twice) would skew
// Figure 4's bars without changing any completion time.
func TestBreakdownCoversEveryCycle(t *testing.T) {
	perturbed := DefaultMachine()
	perturbed.FaultSpec = "jitter:max=200ns,prob=0.1;outage:node=*,start=10us,dur=2us,every=50us;stall:node=5,start=5us,dur=3us,every=40us"
	perturbed.FaultSeed = 3
	perturbed.NoiseSpec = figures.DefaultNoiseSpec + ";delay:node=5,at=20us,dur=10us"
	perturbed.NoiseSeed = 1
	for _, cfg := range []MachineConfig{DefaultMachine(), perturbed} {
		clk := sim.NewClock(cfg.ClockMHz)
		for _, app := range Apps {
			for _, mech := range Mechanisms {
				res, err := Run(Config{App: app, Mechanism: mech, Machine: cfg})
				if err != nil {
					t.Fatalf("%s/%s (noise %q): %v", app, mech, cfg.NoiseSpec, err)
				}
				for i, bd := range res.PerProc {
					if got := clk.ToCycles(bd.Total()); got != res.DoneCycles[i] {
						t.Errorf("%s/%s (noise %q): proc %d buckets sum to %d cycles, done at %d",
							app, mech, cfg.NoiseSpec, i, got, res.DoneCycles[i])
					}
				}
			}
		}
	}
}

// TestClockScalingMetamorphic pins the premise of Figure 9: a run's
// cycle count depends on the network only through its latency and
// bandwidth measured in cycles. Halving the clock while doubling
// HopLatency and PsPerByte keeps both unchanged in cycles, so every app
// and mechanism must take the same cycles, dispatch the same events and
// move the same bytes, while its wall time and every breakdown bucket
// exactly double. Cross-traffic is given in bytes per cycle and needs no
// change; fault and noise durations are wall-clock, so the slow machine
// gets each doubled.
//
// Left out: jitter, whose next % (Max+1) draw picks picoseconds that do
// not scale with the clock (20 of 20 pairs differ), and exp and
// heavytail noise, whose draws differ by picosecond rounding (1 of 20
// pairs each).
func TestClockScalingMetamorphic(t *testing.T) {
	slowDown := func(cfg MachineConfig) MachineConfig {
		cfg.ClockMHz /= 2
		cfg.HopLatency *= 2
		cfg.PsPerByte *= 2
		return cfg
	}
	cross := DefaultMachine()
	cross.CrossTraffic.MsgBytes, cross.CrossTraffic.BytesPerCycle = core.CrossMsgBytes, 8
	faulted := DefaultMachine()
	faulted.FaultSpec = "outage:node=*,start=10us,dur=2us,every=50us;stall:node=5,start=5us,dur=3us,every=40us"
	faulted.NoiseSpec = "hostnoise:node=*,dist=const,mean=2us;delay:node=5,at=20us,dur=10us"
	slowFaulted := slowDown(faulted)
	slowFaulted.FaultSpec = "outage:node=*,start=20us,dur=4us,every=100us;stall:node=5,start=10us,dur=6us,every=80us"
	slowFaulted.NoiseSpec = "hostnoise:node=*,dist=const,mean=4us;delay:node=5,at=40us,dur=20us"
	variants := []struct {
		name       string
		fast, slow MachineConfig
	}{
		{"plain", DefaultMachine(), slowDown(DefaultMachine())},
		{"cross", cross, slowDown(cross)},
		{"faults+noise", faulted, slowFaulted},
	}
	for _, v := range variants {
		for _, app := range Apps {
			for _, mech := range Mechanisms {
				fast, err := Run(Config{App: app, Mechanism: mech, Machine: v.fast})
				if err != nil {
					t.Fatalf("%s %s/%s: %v", v.name, app, mech, err)
				}
				slow, err := Run(Config{App: app, Mechanism: mech, Machine: v.slow})
				if err != nil {
					t.Fatalf("%s %s/%s at half clock: %v", v.name, app, mech, err)
				}
				if fast.Cycles != slow.Cycles || !slices.Equal(fast.DoneCycles, slow.DoneCycles) ||
					fast.Events != slow.Events || fast.Volume != slow.Volume {
					t.Errorf("%s %s/%s: half clock changes the run: %d vs %d cycles, events %+v vs %+v, volume %+v vs %+v",
						v.name, app, mech, fast.Cycles, slow.Cycles, fast.Events, slow.Events, fast.Volume, slow.Volume)
					continue
				}
				if slow.Time != 2*fast.Time {
					t.Errorf("%s %s/%s: wall time %v at half clock, want 2 x %v", v.name, app, mech, slow.Time, fast.Time)
				}
				for i, bd := range fast.PerProc {
					for b, d := range bd.T {
						if got := slow.PerProc[i].T[b]; got != 2*d {
							t.Errorf("%s %s/%s: proc %d bucket %d is %v at half clock, want 2 x %v", v.name, app, mech, i, b, got, d)
						}
					}
				}
			}
		}
	}
}

// TestInstrumentationIsPassiveEveryPair: for every app and mechanism,
// a run with spans, trace and the critical-path profiler (at
// the predicted sweeps' edge cap) measures exactly what a bare run
// does, apart from the critical-path summary it adds.
func TestInstrumentationIsPassiveEveryPair(t *testing.T) {
	instr := DefaultMachine()
	instr.SpanCap = 2048
	instr.TraceCap = 1024
	instr.CritPath = true
	instr.CritEdgeCap = core.DefaultPredictEdgeCap
	for _, app := range Apps {
		for _, mech := range Mechanisms {
			bare, err := Run(Config{App: app, Mechanism: mech})
			if err != nil {
				t.Fatalf("%s/%s: %v", app, mech, err)
			}
			res, err := Run(Config{App: app, Mechanism: mech, Machine: instr})
			if err != nil {
				t.Fatalf("%s/%s instrumented: %v", app, mech, err)
			}
			if res.CritPath == nil {
				t.Fatalf("%s/%s: instrumented run has no critical-path summary", app, mech)
			}
			got := res.Result
			got.CritPath = nil
			if !reflect.DeepEqual(bare.Result, got) {
				t.Errorf("%s/%s: instrumentation perturbed the run:\nbare: %+v\ninstrumented: %+v",
					app, mech, bare.Result, got)
			}
		}
	}
}

func TestBisectionSweepFacade(t *testing.T) {
	pts, err := BisectionSweep(EM3D, []Mechanism{SM, MPPoll}, []float64{0, 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	// The paper's Figure 8 claim is about absolute runtime curves: the
	// high-volume shared-memory curve rises faster (in cycles) than the
	// message-passing curve as bandwidth drops.
	smSlow := pts[1].Results[SM].Cycles - pts[0].Results[SM].Cycles
	mpSlow := pts[1].Results[MPPoll].Cycles - pts[0].Results[MPPoll].Cycles
	if smSlow <= 0 {
		t.Error("SM did not slow down with reduced bisection")
	}
	if smSlow <= mpSlow {
		t.Errorf("SM slowed by %d cycles, MP by %d; SM should lose more", smSlow, mpSlow)
	}
}

// TestBisectionSweepRefusesNegativeRate: a negative cross-traffic rate
// fails the sweep, naming the field, instead of running no traffic at a
// bisection it reports as wider than the machine's.
func TestBisectionSweepRefusesNegativeRate(t *testing.T) {
	_, err := BisectionSweep(EM3D, []Mechanism{SM}, []float64{-4})
	if err == nil || !strings.Contains(err.Error(), "CrossTraffic.BytesPerCycle") {
		t.Errorf("BisectionSweep at -4 bytes/cycle: error %v, want one naming CrossTraffic.BytesPerCycle", err)
	}
}

func TestLatencySweepFacade(t *testing.T) {
	pts, err := LatencySweep(EM3D, []Mechanism{SM, MPPoll}, []int64{15, 100})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Results[SM].Cycles <= pts[0].Results[SM].Cycles {
		t.Error("SM insensitive to emulated latency")
	}
	if pts[1].Results[MPPoll].Cycles != pts[0].Results[MPPoll].Cycles {
		t.Error("MP reference curve moved")
	}
}

func TestClockSweepFacade(t *testing.T) {
	pts, err := ClockSweep(EM3D, []Mechanism{SM}, []float64{20, 14})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].X >= pts[0].X {
		t.Error("slower clock should lower relative network latency")
	}
}

// TestSetParallelismKeepsResultCache: SetParallelism drops the
// in-memory memo but keeps the result cache OpenResultCache attached.
func TestSetParallelismKeepsResultCache(t *testing.T) {
	old := runner
	t.Cleanup(func() { runner, diskCache = old, nil })
	dir := t.TempDir()
	if err := OpenResultCache(dir); err != nil {
		t.Fatal(err)
	}
	SetParallelism(1)
	if _, err := LatencySweep(EM3D, []Mechanism{SM}, []int64{15}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if Parallelism() != 1 || len(entries) != 1 {
		t.Errorf("after SetParallelism(1): %d workers, %d cache entries; want 1 and 1", Parallelism(), len(entries))
	}
}

func TestMissPenaltiesFacade(t *testing.T) {
	mp := MeasureMissPenalties(DefaultMachine())
	if mp.LocalRead < 8 || mp.LocalRead > 20 {
		t.Errorf("local read = %.1f, want ~11", mp.LocalRead)
	}
	if mp.RemoteCleanRead <= mp.LocalRead {
		t.Error("remote read should exceed local")
	}
}

func TestCrossoverFacade(t *testing.T) {
	pts, err := BisectionSweep(EM3D, []Mechanism{SM, MPPoll}, []float64{0, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Whether or not it crosses at this scale, the call must be stable.
	if x, found := Crossover(pts, SM, MPPoll); found && (x < 0 || x > 20) {
		t.Errorf("crossover out of range: %.1f", x)
	}
}

func TestEmulateMachineFacade(t *testing.T) {
	cfg, note, err := EmulateMachine("Stanford DASH")
	if err != nil {
		t.Fatal(err)
	}
	if !note.SharedMemory {
		t.Error("DASH supports shared memory")
	}
	res, err := Run(Config{App: EM3D, Mechanism: SM, Scale: ScaleTiny, Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("empty emulated run")
	}
	if _, _, err := EmulateMachine("VAX"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestTableMachinesFacade(t *testing.T) {
	if len(TableMachines()) != 14 {
		t.Errorf("Table 1 has %d rows", len(TableMachines()))
	}
}

func TestMeasureLogPFacade(t *testing.T) {
	lp := MeasureLogP(DefaultMachine())
	if lp.P != 32 || lp.O <= 0 {
		t.Errorf("implausible LogP: %+v", lp)
	}
}

func TestWithRelaxedConsistencyFacade(t *testing.T) {
	cfg := WithRelaxedConsistency(DefaultMachine())
	res, err := Run(Config{App: EM3D, Mechanism: SM, Scale: ScaleTiny, Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("empty RC run")
	}
}
