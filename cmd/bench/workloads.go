package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mesh"
)

// job is one simulation of a workload: an application under one
// mechanism on one machine configuration.
type job struct {
	App   core.AppName
	Mech  apps.Mechanism
	Scale core.Scale
	Cfg   machine.Config
	// Weak grows the problem with the node count (Figure S1's weak
	// scaling); at 32 nodes it changes nothing.
	Weak bool
	// Point labels the job's position on the workload's axis.
	Point string
	// Predict instruments the run with the critical-path recorder and
	// follows it with a dependency-graph build and a solve grid.
	Predict bool
}

func (j job) String() string {
	return fmt.Sprintf("%s/%s/%s", j.App, j.Mech, j.Point)
}

// workloadSpec is one named set of jobs run one after another.
type workloadSpec struct {
	Name string
	Why  string
	Jobs []job
}

// The paper's axes. Clock scaling (Figure 9) holds the network fixed in
// wall time, so a slower processor sees a relatively faster network; the
// uniform-latency emulation (Figure 10) replaces the mesh by a fixed
// one-way delay; cross-traffic (Figure 8) consumes bisection bandwidth.
var (
	smMechs   = []apps.Mechanism{apps.SM, apps.SMPrefetch}
	mpMechs   = []apps.Mechanism{apps.MPInterrupt, apps.MPPoll, apps.Bulk}
	pairMechs = []apps.Mechanism{apps.SM, apps.MPPoll}
)

const (
	crossMsgBytes = 64  // the paper's cross-traffic message size
	idealOneWay   = 100 // Figure 10 uniform one-way latency, cycles
	s1Nodes       = 512 // largest Figure S1 machine
)

// workloads lists every workload in the order the benchmark documents
// them. A workload's jobs depend only on its definition, never on the
// seed: the seed changes the generated application inputs.
func workloads() []workloadSpec {
	base := machine.DefaultConfig()
	var ws []workloadSpec

	var smLat []job
	for _, a := range core.AppNames {
		for _, mech := range smMechs {
			slow := base
			slow.ClockMHz = 14
			ideal := base
			ideal.IdealNetOneWayCycles = idealOneWay
			smLat = append(smLat,
				job{App: a, Mech: mech, Scale: core.ScaleSweep, Cfg: slow, Point: "14MHz"},
				job{App: a, Mech: mech, Scale: core.ScaleSweep, Cfg: ideal, Point: fmt.Sprintf("ideal%d", idealOneWay)})
		}
	}
	ws = append(ws, workloadSpec{"sm-latency", "4 apps x {SM, SM+prefetch} x {14 MHz clock, 100-cycle ideal net}: coherence misses and miss handoffs do the work; no active messages (Fig 9, 10)", smLat})

	var mpLat []job
	for _, a := range core.AppNames {
		for _, mech := range mpMechs {
			for _, mhz := range []float64{20, 14} {
				cfg := base
				cfg.ClockMHz = mhz
				mpLat = append(mpLat, job{App: a, Mech: mech, Scale: core.ScaleSweep, Cfg: cfg, Point: fmt.Sprintf("%gMHz", mhz)})
			}
		}
	}
	ws = append(ws, workloadSpec{"mp-latency", "4 apps x {MP-interrupt, MP-poll, bulk DMA} x {20, 14 MHz}: active messages and thread handoffs do the work; no remote coherence misses (Fig 9)", mpLat})

	var bis []job
	for _, a := range core.AppNames {
		for _, mech := range pairMechs {
			for _, rate := range []float64{4, 16} {
				cfg := base
				cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: crossMsgBytes, BytesPerCycle: rate}
				bis = append(bis, job{App: a, Mech: mech, Scale: core.ScaleSweep, Cfg: cfg, Point: fmt.Sprintf("x%g", rate)})
			}
		}
	}
	ws = append(ws, workloadSpec{"bisection", "4 apps x {SM, MP-poll} x {4, 16} B/cycle of 64 B cross-traffic: mesh routing under contention, with more packets per event than sm-latency (Fig 8)", bis})

	s1cfg, err := machine.ConfigForNodes(s1Nodes)
	if err != nil {
		panic(err) // s1Nodes is a supported constant
	}
	var s1 []job
	for _, mech := range pairMechs {
		s1 = append(s1, job{App: core.EM3D, Mech: mech, Scale: core.ScaleTiny, Cfg: s1cfg, Weak: true, Point: fmt.Sprintf("n%d", s1Nodes)})
	}
	ws = append(ws, workloadSpec{"s1-512", "em3d x {SM, MP-poll} weak-scaled to 512 nodes: the only workload whose set-up and memory grow with machine size, and the only tiled-engine run (Fig S1)", s1})

	var pred []job
	for _, a := range core.AppNames {
		for _, mech := range pairMechs {
			pred = append(pred, job{App: a, Mech: mech, Scale: core.ScaleSweep, Cfg: predictJobCfg(base), Point: "base", Predict: true})
		}
	}
	ws = append(ws, workloadSpec{"predict", "4 apps x {SM, MP-poll} recording causal edges, each solved on a 12x12 latency/bandwidth grid: the only workload using the obs edge rings and the solver", pred})
	return ws
}

// findWorkload returns the named workload.
func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("bench: unknown workload %q", name)
}
