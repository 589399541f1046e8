package core

import (
	"fmt"

	"repro/internal/apps"
)

// Region is one of the performance regimes of the paper's Figures 1 & 2.
type Region int

const (
	// LatencyHiding: performance is unaffected — communication cost is
	// hidden by low volume or parallel slackness.
	LatencyHiding Region = iota
	// LatencyDominated: performance degrades roughly linearly with the
	// parameter — stalls cannot be hidden with useful computation.
	LatencyDominated
	// CongestionDominated: performance degrades superlinearly — queueing
	// in the network dominates.
	CongestionDominated
)

func (r Region) String() string {
	switch r {
	case LatencyHiding:
		return "latency-hiding"
	case LatencyDominated:
		return "latency-dominated"
	case CongestionDominated:
		return "congestion-dominated"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// Classification thresholds: a segment whose runtime grows by less than
// flatTol per unit of normalized X is "hiding"; one whose local slope
// exceeds superRatio times the first non-flat slope is "congestion".
const (
	flatTol    = 0.08
	superRatio = 2.5
)

// ClassifyRegions assigns a region to each interval of a sweep for one
// mechanism. Points must be ordered so that increasing index means
// increasing communication stress (for bisection sweeps pass the points
// in decreasing-bandwidth order). Points that did not measure mech (a
// crashed run) are bridged over, as Crossover skips them: the returned
// slice has one entry per interval between consecutive points that
// measured mech, so a full sweep gets len(points)-1 entries.
func ClassifyRegions(points []SweepPoint, mech apps.Mechanism) []Region {
	var xs, ys []float64
	for _, pt := range points {
		if r, ok := pt.Results[mech]; ok {
			xs = append(xs, pt.X)
			ys = append(ys, float64(r.Cycles))
		}
	}
	if len(ys) < 2 {
		return nil
	}
	base := ys[0]
	// Normalized positions 0..1 across the sweep.
	span := xs[len(xs)-1] - xs[0]
	if span == 0 {
		span = 1
	}
	slopes := make([]float64, len(ys)-1)
	for i := 1; i < len(ys); i++ {
		dy := (ys[i] - ys[i-1]) / base
		dx := (xs[i] - xs[i-1]) / span
		if dx < 0 {
			dx = -dx
		}
		if dx == 0 {
			dx = 1e-9
		}
		slopes[i-1] = dy / dx
	}
	// Reference slope: the first interval that is not flat.
	ref := 0.0
	for _, s := range slopes {
		if s > flatTol {
			ref = s
			break
		}
	}
	out := make([]Region, len(slopes))
	for i, s := range slopes {
		switch {
		case s <= flatTol:
			out[i] = LatencyHiding
		case ref > 0 && s > superRatio*ref:
			out[i] = CongestionDominated
		default:
			out[i] = LatencyDominated
		}
	}
	return out
}
