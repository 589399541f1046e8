package core

import (
	"errors"

	"repro/internal/apps"
	"repro/internal/predict"
)

// DefaultPredictEdgeCap is the edge-ring capacity predicted
// sweeps instrument their base runs with. Large enough to retain every
// causal edge of the reduced-scale workloads (coverage 1.0). The ring
// allocates as edges arrive, so a retained run costs what it recorded,
// at most 7.3 MB at this cap.
const DefaultPredictEdgeCap = 1 << 17

// The predicted sweep's tuning, fixed for every caller.
const (
	// confidenceFloor is the minimum self-reported confidence a
	// prediction needs to stand unsimulated in a pruned sweep.
	confidenceFloor = 0.7
	// crossoverMargin is the relative gap between the two fastest
	// predicted mechanisms below which a point's verdict counts as
	// ambiguous and a pruned sweep simulates it.
	crossoverMargin = 0.05
)

// ToleranceGrowth is the runtime growth that defines the
// latency-tolerance metric: PredictedSweep.Tolerance is the latency at
// which runtime grows 10%.
const ToleranceGrowth = 0.10

// PredictedPoint is one X position of a predicted sweep: the model's
// prediction for every mechanism, plus the validating simulation where
// one ran (every point without pruning; the confirming subset with it).
type PredictedPoint struct {
	X    float64
	Pred map[apps.Mechanism]predict.Prediction
	Sim  map[apps.Mechanism]RunResult
}

// PredictedSweep is one figure grid solved from one instrumented base
// run per mechanism.
type PredictedSweep struct {
	Points []PredictedPoint
	// Base holds the instrumented base runs the models were built from.
	Base map[apps.Mechanism]RunResult
	// Tolerance is the latency-tolerance metric per mechanism: the
	// one-way network latency, in processor cycles, at which the model
	// predicts runtime grows by ToleranceGrowth (+Inf when the
	// mechanism never reaches it — latency-insensitive at this scale).
	Tolerance map[apps.Mechanism]float64
	// Grid counts mechanism-points in the sweep; Simulated counts the
	// distinct simulations executed for it, including the instrumented
	// base runs. Grid - Simulated is the pruning win.
	Grid, Simulated int
}

// BisectionCrossFrac is the fraction of injected bytes assumed to cross
// the machine's middle cut under dimension-order routing on a uniform
// traffic pattern. The dependency-graph predictor and the closed-form
// model (model.Fit) both use it.
const BisectionCrossFrac = 0.5

// errNoPrediction is PredictedSweep's answer on an axis internal/predict
// cannot solve.
var errNoPrediction = errors.New("core: the axis has no predicted form")

// PredictedSweep is the predicted form of Sweep: instrument one base
// run per mechanism, build its dependency-graph model, solve every
// point of ax, pick the validation set, and fold in the confirming
// simulations. The validation runs are the runs Sweep makes, so they
// share its memo entries. Without prune every point is simulated for
// validation; with it the sweep simulates on demand: only the base
// point (free), points where the model's confidence drops below the
// floor, and points near a predicted mechanism crossover are simulated,
// and everywhere else the prediction stands.
func (r *Runner) PredictedSweep(app AppName, sc Scale, mechs []apps.Mechanism, ax Axis, prune bool) (*PredictedSweep, error) {
	if ax.sm.points == nil {
		return nil, errNoPrediction
	}
	ps := &PredictedSweep{
		Base:      make(map[apps.Mechanism]RunResult, len(mechs)),
		Tolerance: make(map[apps.Mechanism]float64, len(mechs)),
		Grid:      len(mechs) * len(ax.X),
	}
	ps.Points = make([]PredictedPoint, len(ax.X))
	for i, x := range ax.X {
		ps.Points[i] = PredictedPoint{
			X:    x,
			Pred: make(map[apps.Mechanism]predict.Prediction),
			Sim:  make(map[apps.Mechanism]RunResult),
		}
	}

	// Phase 1: instrumented base runs and their models. A mechanism
	// whose base run fails is isolated like a crashed sweep point —
	// absent from every map — and the sweep only errors when nothing
	// survived.
	models := make([]*predict.Model, len(mechs))
	var firstErr error
	alive := 0
	for mi, mech := range mechs {
		l := ax.lane(mech)
		icfg := l.base
		icfg.CritPath = true
		icfg.CritEdgeCap = DefaultPredictEdgeCap
		res, err := r.Run(RunConfig{App: app, Mech: mech, Scale: sc, Machine: icfg, SkipValidate: true})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m, err := predict.Build(predict.Input{
			Nodes:          icfg.Nodes(),
			Clk:            clockOf(l.base),
			Edges:          res.Crit.Edges(),
			EdgesTotal:     res.Crit.EdgesTotal(),
			DoneCycles:     res.DoneCycles,
			BisectionBytes: BisectionCrossFrac * float64(res.Volume.Total()),
			BisectionBW:    res.Bisection,
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		models[mi] = m
		ps.Base[mech] = res
		ps.Tolerance[mech] = m.LatencyTolerance(ToleranceGrowth) * l.baseOneWay
		ps.Simulated++
		alive++
		for i := range ax.X {
			ps.Points[i].Pred[mech] = m.Solve(l.points[i])
		}
	}
	if alive == 0 {
		return nil, firstErr
	}

	// Phase 2: pick the validation set. Base-config points are free
	// (the instrumented run is that simulation, CritPath being passive);
	// the rest simulate always without prune, on demand with it.
	need := make([]bool, len(ax.X))
	if !prune {
		for i := range need {
			need[i] = true
		}
	} else {
		for i := range ax.X {
			for mi, mech := range mechs {
				if models[mi] == nil {
					continue
				}
				if ps.Points[i].Pred[mech].Confidence < confidenceFloor {
					need[i] = true
				}
			}
			if a, b, ok := topTwo(ps.Points[i].Pred); ok && b > 0 && float64(b-a) <= crossoverMargin*float64(a) {
				need[i] = true
			}
		}
		// A predicted order flip between adjacent points is a crossover;
		// simulate both ends so the hybrid curve nails its position.
		for mi := range mechs {
			for mk := mi + 1; mk < len(mechs); mk++ {
				if models[mi] == nil || models[mk] == nil {
					continue
				}
				a, b := mechs[mi], mechs[mk]
				for i := 1; i < len(ax.X); i++ {
					d0 := ps.Points[i-1].Pred[a].Cycles - ps.Points[i-1].Pred[b].Cycles
					d1 := ps.Points[i].Pred[a].Cycles - ps.Points[i].Pred[b].Cycles
					if d0 != 0 && d1 != 0 && (d0 < 0) != (d1 < 0) {
						need[i-1], need[i] = true, true
					}
				}
			}
		}
	}

	// Phase 3: run the validation simulations. Identical configs (the
	// flat reference mechanisms of the ideal-latency axis) dedupe
	// through the memo, so count distinct fingerprints, not jobs.
	type simRef struct{ pt, mech int }
	var (
		rcs  []RunConfig
		refs []simRef
	)
	distinct := make(map[RunConfig]bool)
	for i := range ax.X {
		for mi, mech := range mechs {
			if models[mi] == nil {
				continue
			}
			if l := ax.lane(mech); l.cfgs[i] == l.base {
				// The instrumented run is this point's simulation.
				ps.Points[i].Sim[mech] = ps.Base[mech]
				continue
			}
			if !need[i] {
				continue
			}
			rc := ax.run(app, sc, mech, i)
			rcs = append(rcs, rc)
			refs = append(refs, simRef{pt: i, mech: mi})
			distinct[fingerprint(rc)] = true
		}
	}
	ps.Simulated += len(distinct)
	results, errs := r.RunBatchAll(rcs)
	for k, ref := range refs {
		if errs[k] == nil {
			ps.Points[ref.pt].Sim[mechs[ref.mech]] = results[k]
		}
	}
	return ps, nil
}

// topTwo returns the two smallest predicted cycle counts of one point.
func topTwo(pred map[apps.Mechanism]predict.Prediction) (best, second int64, ok bool) {
	n := 0
	for _, p := range pred {
		n++
		switch {
		case n == 1:
			best = p.Cycles
		case p.Cycles < best:
			second = best
			best = p.Cycles
		case n == 2 || p.Cycles < second:
			second = p.Cycles
		}
	}
	return best, second, n >= 2
}

// Errors accumulates the predicted-vs-measured error of every
// mechanism-point that has both values, point by point in
// apps.Mechanisms order, so the float sum behind the mean is
// reproducible to the bit. The base points count — they pin the
// exactness guarantee at 0%.
func (ps *PredictedSweep) Errors() predict.ErrorStats {
	var s predict.ErrorStats
	for _, pt := range ps.Points {
		for _, mech := range apps.Mechanisms {
			sim, simOK := pt.Sim[mech]
			pred, ok := pt.Pred[mech]
			if simOK && ok {
				s.Add(float64(pred.Cycles), float64(sim.Cycles))
			}
		}
	}
	return s
}

// HybridPoints renders the sweep as ordinary SweepPoints — the measured
// result where a simulation ran, the prediction standing in elsewhere —
// so downstream analysis (Crossover, fastest-mechanism verdicts, CSVs)
// treats pruned and full sweeps identically. Synthetic results carry
// only the cycle count.
func (ps *PredictedSweep) HybridPoints() []SweepPoint {
	out := make([]SweepPoint, len(ps.Points))
	for i, pt := range ps.Points {
		sp := SweepPoint{X: pt.X, Results: make(map[apps.Mechanism]RunResult, len(pt.Pred))}
		for mech, pred := range pt.Pred {
			if sim, ok := pt.Sim[mech]; ok {
				sp.Results[mech] = sim
				continue
			}
			var rr RunResult
			rr.Mech = mech
			rr.Cycles = pred.Cycles
			sp.Results[mech] = rr
		}
		out[i] = sp
	}
	return out
}
