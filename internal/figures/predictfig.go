package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/predict"
)

// PrintPredictedSweep renders a predicted sweep: one row per
// (X, mechanism) with the dependency-graph prediction, the validating
// simulation where one ran (every point without pruning; the confirming
// subset with it), and the model's self-reported confidence. A summary
// line gives the measured error envelope and the pruning win, then the
// per-mechanism latency-tolerance metric.
func PrintPredictedSweep(w io.Writer, title, xlabel string, mechs []apps.Mechanism, ps *core.PredictedSweep) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tmechanism\tpredicted\tsimulated\terr%%\tconf\n", xlabel)
	for _, pt := range ps.Points {
		for _, m := range mechs {
			pred, ok := pt.Pred[m]
			if !ok {
				continue
			}
			simCol, errCol := "-", "-"
			if sim, ok := pt.Sim[m]; ok && sim.Cycles > 0 {
				simCol = strconv.FormatInt(sim.Cycles, 10)
				errCol = fmt.Sprintf("%.1f", predict.ErrorPct(float64(pred.Cycles), float64(sim.Cycles)))
			}
			fmt.Fprintf(tw, "%.1f\t%s\t%d\t%s\t%s\t%.2f\n",
				pt.X, m.Short(), pred.Cycles, simCol, errCol, pred.Confidence)
		}
	}
	tw.Flush()
	es := ps.Errors()
	fmt.Fprintf(w, "validated %d of %d mechanism-points: worst error %.1f%%, mean %.1f%%; %d simulations for the sweep (%d saved)\n",
		es.N, ps.Grid, es.MaxPct, es.MeanPct(), ps.Simulated, ps.Grid-ps.Simulated)
	fmt.Fprintf(w, "latency tolerance (one-way cycles at +%.0f%% runtime):", 100*core.ToleranceGrowth)
	for _, m := range mechs {
		tol, ok := ps.Tolerance[m]
		if !ok {
			continue
		}
		if math.IsInf(tol, 1) {
			fmt.Fprintf(w, "  %s >10^6", m.Short())
		} else {
			fmt.Fprintf(w, "  %s %.0f", m.Short(), tol)
		}
	}
	fmt.Fprintln(w)
}

// predictedColumns are the columns of a predicted CSV after the X
// column.
var predictedColumns = []string{"mechanism", "predicted_cycles", "simulated_cycles", "error_pct", "confidence", "rho"}

// WritePredictedCSV emits a predicted sweep as CSV: one row per
// (X, mechanism) with prediction, validating simulation (empty cells
// where pruning skipped it), error, and the model's confidence and
// estimated bisection utilization.
func WritePredictedCSV(w io.Writer, xlabel string, mechs []apps.Mechanism, ps *core.PredictedSweep) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{xlabel}, predictedColumns...)); err != nil {
		return err
	}
	if err := writePredictedRows(cw, nil, mechs, ps); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// writePredictedRows writes ps's rows in WritePredictedCSV's layout,
// each after the columns in prefix.
func writePredictedRows(cw *csv.Writer, prefix []string, mechs []apps.Mechanism, ps *core.PredictedSweep) error {
	for _, pt := range ps.Points {
		for _, m := range mechs {
			pred, ok := pt.Pred[m]
			if !ok {
				continue
			}
			simCol, errCol := "", ""
			if sim, ok := pt.Sim[m]; ok && sim.Cycles > 0 {
				simCol = strconv.FormatInt(sim.Cycles, 10)
				errCol = strconv.FormatFloat(predict.ErrorPct(float64(pred.Cycles), float64(sim.Cycles)), 'f', 3, 64)
			}
			row := append(append([]string(nil), prefix...),
				strconv.FormatFloat(pt.X, 'f', 2, 64), m.String(),
				strconv.FormatInt(pred.Cycles, 10), simCol, errCol,
				strconv.FormatFloat(pred.Confidence, 'f', 4, 64),
				strconv.FormatFloat(pred.Rho, 'f', 4, 64))
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// PredictedFig4 is one application's slice of the -fig 4 -predict
// validation matrix: the same base machine stressed along the two axes
// the paper sweeps, predicted from one instrumented run per mechanism.
type PredictedFig4 struct {
	App core.AppName
	// Clock is the Figure 9 axis (network latency+bandwidth via clock
	// scaling); Bisection the Figure 8 axis (cross-traffic eating cut
	// bandwidth).
	Clock, Bisection *core.PredictedSweep
}

// predFig4MhzFracs and predFig4Rates pin the validation matrix's grids:
// the base clock plus two slower clocks (raising relative network
// latency and cost), and three cross-traffic rates from an idle cut up
// to moderate load (u = 1/3). Heavier rates sit past the queueing
// model's honest range — their confidence drops below the pruning
// floor, so the -predict Figure 8 sweep validates them by simulation
// instead of holding them to the committed error bound.
var (
	predFig4MhzFracs = []float64{1.0, 0.8, 0.7}
	predFig4Rates    = []float64{0, 4, 6}
)

// PredFig4 runs the prediction validation matrix: for each application,
// a clock sweep and a bisection sweep predicted from one instrumented
// base run per mechanism, printed with their per-point errors and
// latency tolerances. It returns the per-app sweeps plus the aggregate
// error statistics over every validated mechanism-point. prune
// validates only the points the model distrusts.
func PredFig4(w io.Writer, appsToRun []core.AppName, sc core.Scale, cfg machine.Config, prune bool) ([]PredictedFig4, predict.ErrorStats, error) {
	var (
		rows  []PredictedFig4
		stats predict.ErrorStats
	)
	fmt.Fprintln(w, "Figure 4 (predicted): dependency-graph model vs simulation, per app and mechanism")
	for _, app := range appsToRun {
		mhzs := make([]float64, len(predFig4MhzFracs))
		for i, f := range predFig4MhzFracs {
			mhzs[i] = cfg.ClockMHz * f
		}
		clock, err := core.DefaultRunner.PredictedSweep(app, sc, apps.Mechanisms, core.ClockAxis(cfg, mhzs), prune)
		if err != nil {
			return nil, stats, err
		}
		bisect, err := core.DefaultRunner.PredictedSweep(app, sc, apps.Mechanisms, core.BisectionAxis(cfg, predFig4Rates), prune)
		if err != nil {
			return nil, stats, err
		}
		fmt.Fprintln(w)
		PrintPredictedSweep(w, fmt.Sprintf("[%s] clock axis (Figure 9 grid)", app),
			"net latency (cycles)", apps.Mechanisms, clock)
		PrintPredictedSweep(w, fmt.Sprintf("[%s] bisection axis (Figure 8 grid)", app),
			"bytes/cycle", apps.Mechanisms, bisect)
		rows = append(rows, PredictedFig4{App: app, Clock: clock, Bisection: bisect})
		stats.Merge(clock.Errors())
		stats.Merge(bisect.Errors())
	}
	fmt.Fprintf(w, "\nmatrix total: worst error %.1f%%, mean %.1f%% over %d validated mechanism-points\n",
		stats.MaxPct, stats.MeanPct(), stats.N)
	return rows, stats, nil
}

// WritePredictedFig4CSV emits the validation matrix as CSV, both axes
// per app in one file.
func WritePredictedFig4CSV(w io.Writer, rows []PredictedFig4) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"app", "axis", "x"}, predictedColumns...)); err != nil {
		return err
	}
	for _, r := range rows {
		if err := writePredictedRows(cw, []string{string(r.App), "clock"}, apps.Mechanisms, r.Clock); err != nil {
			return err
		}
		if err := writePredictedRows(cw, []string{string(r.App), "bisection"}, apps.Mechanisms, r.Bisection); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLatencyToleranceCSV emits the latency-tolerance metric per
// (app, mechanism): the one-way network latency, in processor cycles,
// at which the model predicts runtime grows past the configured target.
// Mechanisms that never reach it at any plausible latency emit "inf".
func WriteLatencyToleranceCSV(w io.Writer, rows []PredictedFig4) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "mechanism", "tolerance_one_way_cycles"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, m := range apps.Mechanisms {
			tol, ok := r.Clock.Tolerance[m]
			if !ok {
				continue
			}
			col := "inf"
			if !math.IsInf(tol, 1) {
				col = strconv.FormatFloat(tol, 'f', 1, 64)
			}
			if err := cw.Write([]string{string(r.App), m.String(), col}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintGraphVsClosedForm puts the two models side by side against
// simulation on the Figure 10 latency axis for shared memory: the
// fitted Section 2 closed form (which names the region) and the
// dependency-graph replay (which should win on magnitude). Returns the
// error statistics of each.
func PrintGraphVsClosedForm(w io.Writer, app core.AppName, sc core.Scale, cfg machine.Config, lats []int64) (graphErr, closedErr predict.ErrorStats, err error) {
	// Full validation: every point simulated.
	ps, err := core.DefaultRunner.PredictedSweep(app, sc,
		[]apps.Mechanism{apps.SM}, core.IdealLatencyAxis(cfg, lats), false)
	if err != nil {
		return graphErr, closedErr, err
	}
	smRun, err := core.Run(core.RunConfig{App: app, Mech: apps.SM, Scale: sc,
		Machine: cfg, SkipValidate: true})
	if err != nil {
		return graphErr, closedErr, err
	}
	mpRun, err := core.Run(core.RunConfig{App: app, Mech: apps.MPPoll, Scale: sc,
		Machine: cfg, SkipValidate: true})
	if err != nil {
		return graphErr, closedErr, err
	}
	appP, machP, err := model.Fit(smRun, mpRun, cfg)
	if err != nil {
		return graphErr, closedErr, err
	}

	fmt.Fprintf(w, "Graph model vs closed form (%s, shared memory, latency sweep)\n", app)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "one-way cycles\tsimulated\tgraph\tgraph err%\tclosed form\tclosed err%\tregion")
	for i, lat := range lats {
		sim, ok := ps.Points[i].Sim[apps.SM]
		if !ok || sim.Cycles == 0 {
			continue
		}
		graph := ps.Points[i].Pred[apps.SM]
		mp := machP
		mp.OneWayLatency = float64(lat)
		closed := model.Predict(appP, mp, model.SharedMemory)
		graphErr.Add(float64(graph.Cycles), float64(sim.Cycles))
		closedErr.Add(closed.Cycles, float64(sim.Cycles))
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.0f\t%.1f\t%s\n",
			lat, sim.Cycles, graph.Cycles,
			predict.ErrorPct(float64(graph.Cycles), float64(sim.Cycles)),
			closed.Cycles,
			predict.ErrorPct(closed.Cycles, float64(sim.Cycles)),
			closed.Region)
	}
	tw.Flush()
	fmt.Fprintf(w, "graph model: worst %.1f%% mean %.1f%%;  closed form: worst %.1f%% mean %.1f%%\n",
		graphErr.MaxPct, graphErr.MeanPct(), closedErr.MaxPct, closedErr.MeanPct())
	return graphErr, closedErr, nil
}
