package figures

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
)

// PrintModelComparison fits the Section 2 analytical model from two
// baseline runs and prints model-vs-simulated shared-memory runtimes
// across the latency sweep — the quantitative companion to the paper's
// conceptual Figure 2. It returns the worst model/simulated ratio. Its
// runs go through r, whose Sweep over core.IdealLatencyAxis runs the
// latency points on the worker pool and memoizes, caches, logs and
// counts them with the sweeps they repeat.
func PrintModelComparison(w io.Writer, r *core.Runner, app core.AppName, sc core.Scale, cfg machine.Config, lats []int64) (float64, error) {
	appP, machP, err := fitModel(r, app, sc, cfg)
	if err != nil {
		return 0, err
	}

	pts, err := r.Sweep(app, sc, []apps.Mechanism{apps.SM}, core.IdealLatencyAxis(cfg, lats))
	if err != nil {
		return 0, err
	}

	fmt.Fprintf(w, "Analytical model vs simulator (%s, shared memory, latency sweep)\n", app)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "one-way cycles\tsimulated\tmodel\tmodel/sim\tmodel region")
	worst := 1.0
	for i, lat := range lats {
		simRun, ok := pts[i].Results[apps.SM]
		if !ok {
			continue // a failed run; the runner reports it
		}
		mp := machP
		mp.OneWayLatency = float64(lat)
		pred := model.Predict(appP, mp, model.SharedMemory)
		ratio := pred.Cycles / float64(simRun.Cycles)
		if ratio > worst || 1/ratio > worst {
			worst = ratio
			if 1/ratio > worst {
				worst = 1 / ratio
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.2f\t%s\n", lat, simRun.Cycles, pred.Cycles, ratio, pred.Region)
	}
	tw.Flush()
	return worst, nil
}

// fitModel fits the Section 2 closed-form model from app's shared-memory
// and MP-poll runs on the base machine, run on r.
func fitModel(r *core.Runner, app core.AppName, sc core.Scale, cfg machine.Config) (model.AppParams, model.MachineParams, error) {
	var runs [2]core.RunResult
	for i, mech := range []apps.Mechanism{apps.SM, apps.MPPoll} {
		res, err := r.Run(core.RunConfig{App: app, Mech: mech, Scale: sc, Machine: cfg})
		if err != nil {
			return model.AppParams{}, model.MachineParams{}, err
		}
		runs[i] = res
	}
	return model.Fit(runs[0], runs[1], cfg)
}

// PrintLogP measures and prints the machine's LogP parameters — the
// related-work framing (Martin et al.) the paper contrasts itself with.
func PrintLogP(w io.Writer, cfg machine.Config) core.LogP {
	lp := core.MeasureLogP(cfg)
	fmt.Fprintln(w, "LogP parameters of the simulated machine (cycles):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "L (latency)\t%.1f\n", lp.L)
	fmt.Fprintf(tw, "o (overhead)\t%.1f\n", lp.O)
	fmt.Fprintf(tw, "g (gap)\t%.1f\n", lp.G)
	fmt.Fprintf(tw, "P (processors)\t%d\n", lp.P)
	tw.Flush()
	fmt.Fprintln(w, "overhead-dominated (o, g >> L): latency-insensitive message passing,")
	fmt.Fprintln(w, "as the paper's EM3D results and Martin et al.'s LogP analysis agree.")
	return lp
}
