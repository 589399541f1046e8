// Package repro reproduces Chong, Barua, Dahlgren, Kubiatowicz & Agarwal,
// "The Sensitivity of Communication Mechanisms to Bandwidth and Latency"
// (HPCA 1998) on a from-scratch discrete-event simulator of an
// Alewife-class multiprocessor.
//
// The public API is a thin facade over the internal experiment framework:
//
//	res, err := repro.Run(repro.Config{App: repro.EM3D, Mechanism: repro.SM})
//	pts, err := repro.BisectionSweep(repro.EM3D, nil, nil)
//
// Applications (EM3D, UNSTRUC, ICCG, MOLDYN) are generated
// deterministically, run under any of the five communication mechanisms
// (shared memory, shared memory + prefetch, message passing with
// interrupts, message passing with polling, bulk DMA transfer), validated
// against sequential references, and measured with the paper's
// time-breakdown and communication-volume accounting.
package repro

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/machines"
	"repro/internal/mem"
	"repro/internal/stats"
)

// App identifies one of the paper's four applications.
type App = core.AppName

// The four applications.
const (
	EM3D    = core.EM3D
	UNSTRUC = core.UNSTRUC
	ICCG    = core.ICCG
	MOLDYN  = core.MOLDYN
)

// Apps lists the applications in the paper's order.
var Apps = core.AppNames

// Mechanism is one of the paper's five communication styles.
type Mechanism = apps.Mechanism

// The five mechanisms.
const (
	SM          = apps.SM
	SMPrefetch  = apps.SMPrefetch
	MPInterrupt = apps.MPInterrupt
	MPPoll      = apps.MPPoll
	Bulk        = apps.Bulk
)

// Mechanisms lists all five in the paper's order.
var Mechanisms = apps.Mechanisms

// Scale selects workload size.
type Scale = core.Scale

// Workload scales.
const (
	ScaleTiny    = core.ScaleTiny
	ScaleSweep   = core.ScaleSweep
	ScaleDefault = core.ScaleDefault
	ScaleFull    = core.ScaleFull
)

// MachineConfig parameterizes the simulated multiprocessor.
type MachineConfig = machine.Config

// DefaultMachine returns the calibrated 32-node Alewife (20 MHz, 8x4
// mesh, 18 bytes/cycle bisection, ~15-cycle one-way network latency).
func DefaultMachine() MachineConfig { return machine.DefaultConfig() }

// MaxNodes is the largest supported machine (bounded by the directory's
// sharer bitsets).
const MaxNodes = machine.MaxNodes

// MachineForNodes returns the default machine rescaled to the given node
// count (1 to MaxNodes) on the squarest wormhole mesh that divides it:
// 64 nodes on 8x8, 128 on 16x8, 512 on 32x16. MachineForNodes(32) is
// exactly DefaultMachine().
func MachineForNodes(nodes int) (MachineConfig, error) {
	return machine.ConfigForNodes(nodes)
}

// Config selects one experiment run.
type Config struct {
	App       App
	Mechanism Mechanism
	Scale     Scale         // zero value is ScaleTiny
	Machine   MachineConfig // zero value replaced by DefaultMachine()
	// SkipValidate skips the numerical check against the sequential
	// reference (useful inside large sweeps).
	SkipValidate bool
}

// Result is one run's measurements.
type Result = core.RunResult

// Breakdown re-exports the four-bucket time breakdown.
type Breakdown = stats.Breakdown

// Volume re-exports the four-kind communication volume.
type Volume = stats.Volume

// Run executes one experiment: builds a fresh simulated machine, runs the
// application under the mechanism, validates the numerical result, and
// returns the measurements.
func Run(c Config) (Result, error) {
	if c.Machine.Nodes() == 0 {
		c.Machine = DefaultMachine()
	}
	return core.Run(core.RunConfig{
		App: c.App, Mech: c.Mechanism, Scale: c.Scale,
		Machine: c.Machine, SkipValidate: c.SkipValidate,
	})
}

// SweepPoint is one X position of a parametric experiment.
type SweepPoint = core.SweepPoint

// SetParallelism sets the worker-pool width used by the sweep functions
// (n <= 0 means all cores; 1 means serial) and drops the run cache.
// Sweeps fan individual simulations out over the pool and memoize them
// by configuration; results are bit-identical to serial execution.
func SetParallelism(n int) { core.SetDefaultWorkers(n) }

// Parallelism reports the current sweep worker-pool width.
func Parallelism() int { return core.DefaultRunner.Workers() }

// DefaultCrossRates is the cross-traffic schedule of the Figure 8
// bisection sweep (bytes per processor cycle consumed by I/O traffic).
var DefaultCrossRates = core.DefaultCrossRates

// DefaultClockMHzs is the Figure 9 clock schedule (the paper's hardware
// range, 20 down to 14 MHz).
var DefaultClockMHzs = core.DefaultClockMHzs

// DefaultIdealLatencies is the Figure 10 context-switch emulation
// schedule, in one-way processor cycles.
var DefaultIdealLatencies = core.DefaultIdealLatencies

// BisectionSweep reproduces the Figure 8 methodology for one app at
// ScaleSweep: I/O cross-traffic reduces the effective bisection. Nil
// mechs means all five; nil rates means DefaultCrossRates.
func BisectionSweep(app App, mechs []Mechanism, rates []float64) ([]SweepPoint, error) {
	if mechs == nil {
		mechs = Mechanisms
	}
	if rates == nil {
		rates = DefaultCrossRates
	}
	return core.DefaultRunner.Sweep(app, core.ScaleSweep, mechs, core.BisectionAxis(DefaultMachine(), rates))
}

// ClockSweep reproduces the Figure 9 methodology: vary the processor
// clock against the fixed asynchronous network.
func ClockSweep(app App, mechs []Mechanism, mhzs []float64) ([]SweepPoint, error) {
	if mechs == nil {
		mechs = Mechanisms
	}
	if mhzs == nil {
		mhzs = DefaultClockMHzs
	}
	return core.DefaultRunner.Sweep(app, core.ScaleSweep, mechs, core.ClockAxis(DefaultMachine(), mhzs))
}

// LatencySweep reproduces the Figure 10 methodology: a uniform-latency,
// infinite-bandwidth network for shared memory (message-passing curves
// are fixed references).
func LatencySweep(app App, mechs []Mechanism, oneWayCycles []int64) ([]SweepPoint, error) {
	if mechs == nil {
		mechs = Mechanisms
	}
	if oneWayCycles == nil {
		oneWayCycles = DefaultIdealLatencies
	}
	return core.DefaultRunner.Sweep(app, core.ScaleSweep, mechs, core.IdealLatencyAxis(DefaultMachine(), oneWayCycles))
}

// DefaultScalingNodes is the Figure S1 node-count schedule (32 to 512).
var DefaultScalingNodes = core.DefaultScalingNodes

// ScalingSweep reproduces the Figure S1 methodology for one app at
// ScaleSweep: runtime per mechanism across machine sizes. scaleProblem
// false holds the problem fixed (strong scaling); true grows it
// proportionally to the node count (weak scaling). Nil mechs means all
// five; nil nodeCounts means DefaultScalingNodes. Node counts the
// workload cannot be partitioned for are isolated: they are simply
// absent from that point's Results.
func ScalingSweep(app App, mechs []Mechanism, nodeCounts []int, scaleProblem bool) ([]SweepPoint, error) {
	if mechs == nil {
		mechs = Mechanisms
	}
	if nodeCounts == nil {
		nodeCounts = DefaultScalingNodes
	}
	ax, err := core.NodeScalingAxis(DefaultMachine(), nodeCounts, scaleProblem)
	if err != nil {
		return nil, err
	}
	return core.DefaultRunner.Sweep(app, core.ScaleSweep, mechs, ax)
}

// OpenResultCache opens (creating if needed) an on-disk run-result cache
// and attaches it to the sweep runner: completed simulations are
// persisted and reused across processes. Entries are validated against
// the configuration fingerprint and a schema version; stale or corrupt
// entries are ignored and re-simulated.
func OpenResultCache(dir string) error {
	dc, err := core.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	core.DefaultRunner.SetDiskCache(dc)
	return nil
}

// Crossover finds where mechanism a's runtime crosses b's in a sweep.
func Crossover(points []SweepPoint, a, b Mechanism) (x float64, found bool) {
	return core.Crossover(points, a, b)
}

// MissPenalties is the Figure 3 microbenchmark result.
type MissPenalties = core.MissPenalties

// MeasureMissPenalties runs the Figure 3 microbenchmarks on a machine.
func MeasureMissPenalties(cfg MachineConfig) MissPenalties {
	return core.MeasureMissPenalties(cfg)
}

// MachineRow is one row of the paper's Table 1.
type MachineRow = machines.Machine

// TableMachines returns the paper's Table 1 rows.
func TableMachines() []MachineRow { return machines.Table1() }

// EmulationNote describes the approximations behind an emulated machine.
type EmulationNote = machines.EmulationNote

// EmulateMachine builds a 32-node simulator configuration matching a
// Table 1 machine's clock, bisection bandwidth, network latency and miss
// latencies — the forward direction of the paper's emulation framing.
func EmulateMachine(name string) (MachineConfig, EmulationNote, error) {
	m, err := machines.ByName(name)
	if err != nil {
		return MachineConfig{}, EmulationNote{}, err
	}
	return machines.ConfigFor(m)
}

// LogP holds measured LogP parameters (latency, overhead, gap) of a
// machine configuration — the alternative communication model the paper
// contrasts itself with (Martin et al.).
type LogP = core.LogP

// MeasureLogP runs the LogP microbenchmarks on cfg.
func MeasureLogP(cfg MachineConfig) LogP { return core.MeasureLogP(cfg) }

// WithRelaxedConsistency returns cfg switched to write-buffered release
// consistency — the latency-tolerance technique the paper's Section 2
// discusses; see the ablation benchmarks for its measured effect.
func WithRelaxedConsistency(cfg MachineConfig) MachineConfig {
	cfg.Mem.Consistency = mem.RC
	return cfg
}
