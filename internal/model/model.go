package model

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Mechanism mirrors the study's three structural classes (prefetching is
// shared memory with partial overlap; interrupts/polling/bulk share the
// one-way structure at this level of abstraction).
type Mechanism int

const (
	// SharedMemory blocks a round trip per demand miss.
	SharedMemory Mechanism = iota
	// Prefetched overlaps a fraction of the round trips.
	Prefetched
	// MessagePassing communicates one-way at production time.
	MessagePassing
)

func (m Mechanism) String() string {
	switch m {
	case SharedMemory:
		return "shared-memory"
	case Prefetched:
		return "prefetched"
	case MessagePassing:
		return "message-passing"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// AppParams characterizes one application per processor.
type AppParams struct {
	ComputeCycles float64 // useful work per processor
	Values        float64 // remote values communicated per processor

	// Per-value costs by mechanism.
	SMEndpointCycles float64 // latency-independent part of an SM stall (controllers, DRAM, queueing)
	SMBytes          float64 // bytes injected per value (protocol total)
	MPOverhead       float64 // processor overhead per value (send+receive)
	MPBytes          float64 // bytes injected per value (header amortized)
	PrefetchHidden   float64 // fraction of SM stall hidden by prefetching (0..1)

	// SyncCycles is mechanism-independent synchronization (barriers).
	SyncCycles float64
}

// MachineParams characterizes the machine.
type MachineParams struct {
	Procs            int
	BisectionPerCyc  float64 // machine-wide bisection bandwidth, bytes per processor cycle
	OneWayLatency    float64 // one-way network latency, cycles
	BaseOneWay       float64 // the unstressed latency (for region classification)
	BisectionTraffic float64 // fraction of injected bytes crossing the bisection
}

// Prediction is the model output for one (app, machine, mechanism) point.
type Prediction struct {
	Cycles     float64
	Rho        float64 // offered bisection utilization (0..1+)
	Region     core.Region
	StallShare float64 // fraction of runtime in communication stalls
}

// congestionCap bounds the 1/(1-rho) factor (a saturated network
// serializes, it does not diverge).
const congestionCap = 8

// Predict evaluates the model at one point by fixed-point iteration on
// runtime (offered load depends on runtime, stall cost depends on load).
func Predict(app AppParams, m MachineParams, mech Mechanism) Prediction {
	bytesPerValue := app.SMBytes
	switch mech {
	case MessagePassing:
		bytesPerValue = app.MPBytes
	}
	// Bisection load is machine-wide: all processors' injected bytes
	// against the machine's cut bandwidth over the runtime.
	totalBytes := app.Values * bytesPerValue * float64(m.Procs) * m.BisectionTraffic

	base := app.ComputeCycles + app.SyncCycles
	perValue := func(oneWay, f float64) float64 {
		switch mech {
		case SharedMemory:
			// Round trip of blocking latency plus the fixed endpoint
			// costs, both stretched by congestion.
			return (app.SMEndpointCycles + 2*oneWay) * f
		case Prefetched:
			return (app.SMEndpointCycles + 2*oneWay) * f * (1 - app.PrefetchHidden)
		default:
			// One-way and asynchronous: processor overhead is not
			// latency-scaled; only a sliver of congestion queueing
			// surfaces past the overlap.
			return app.MPOverhead * (1 + 0.25*(f-1))
		}
	}

	// Demand utilization: offered load at the uncongested runtime. Used
	// for region classification (the converged rho is elastic — a
	// stretched runtime deflates it).
	t0 := base + app.Values*perValue(m.OneWayLatency, 1)
	rho0 := totalBytes / (t0 * m.BisectionPerCyc)

	// Damped fixed point for the congested runtime (plain iteration can
	// oscillate when the stall-load feedback is strong).
	t := t0
	var rho, stall float64
	for iter := 0; iter < 200; iter++ {
		rho = totalBytes / (t * m.BisectionPerCyc)
		f := congestionFactor(rho)
		stall = app.Values * perValue(m.OneWayLatency, f)
		next := base + stall
		if math.Abs(next-t) < 1e-9*t {
			t = next
			break
		}
		t = 0.5*t + 0.5*next
	}

	// Region: excess stall relative to the mechanism's own unstressed
	// operating point (base latency, uncongested network).
	baseStall := app.Values * perValue(m.BaseOneWay, 1)
	excess := stall - baseStall
	p := Prediction{Cycles: t, Rho: rho, StallShare: stall / t}
	switch {
	case rho0 > 0.5:
		p.Region = core.CongestionDominated
	case excess < 0.08*t:
		p.Region = core.LatencyHiding
	default:
		p.Region = core.LatencyDominated
	}
	return p
}

func congestionFactor(rho float64) float64 {
	if rho >= 1 {
		return congestionCap
	}
	f := 1 / (1 - rho)
	if f > congestionCap {
		return congestionCap
	}
	return f
}

// bisectionCurve evaluates the model across bisection bandwidths (the
// analytical Figure 1).
func bisectionCurve(app AppParams, m MachineParams, mech Mechanism, bisections []float64) []Prediction {
	out := make([]Prediction, len(bisections))
	for i, b := range bisections {
		mm := m
		mm.BisectionPerCyc = b
		out[i] = Predict(app, mm, mech)
	}
	return out
}

// latencyCurve evaluates the model across one-way latencies (the
// analytical Figure 2).
func latencyCurve(app AppParams, m MachineParams, mech Mechanism, latencies []float64) []Prediction {
	out := make([]Prediction, len(latencies))
	for i, l := range latencies {
		mm := m
		mm.OneWayLatency = l
		out[i] = Predict(app, mm, mech)
	}
	return out
}
