package figures

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Fig4Row is one bar of Figure 4.
type Fig4Row struct {
	App core.AppName
	Res core.RunResult
}

// Fig4Data runs all four applications under all five mechanisms on the
// base machine. The 20 runs execute on r's worker pool; row order
// matches the serial nesting (app-major, mechanism-minor).
func Fig4Data(r *core.Runner, sc core.Scale, cfg machine.Config) ([]Fig4Row, error) {
	var jobs []core.RunConfig
	for _, app := range core.AppNames {
		for _, mech := range apps.Mechanisms {
			jobs = append(jobs, core.RunConfig{App: app, Mech: mech, Scale: sc, Machine: cfg})
		}
	}
	results, err := r.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, len(results))
	for i, res := range results {
		rows[i] = Fig4Row{App: jobs[i].App, Res: res}
	}
	return rows, nil
}

// PrintFig4 renders the runtime breakdown summary (the paper plots
// stacked bars; we print cycles and percentage splits).
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 4: Summary of Performance on Alewife")
	fmt.Fprintln(w, "(execution time in processor cycles; breakdown percentages of total processor time)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tmechanism\tcycles\trel\tsync%\tmsg-ovh%\tmem+ni%\tcompute%")
	var base int64
	for _, row := range rows {
		if row.Res.Mech == apps.SM {
			base = row.Res.Cycles
		}
		bd := row.Res.Breakdown
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			row.App, row.Res.Mech, row.Res.Cycles,
			float64(row.Res.Cycles)/float64(base),
			100*bd.Frac(stats.BucketSync),
			100*bd.Frac(stats.BucketMsgOverhead),
			100*bd.Frac(stats.BucketMemWait),
			100*bd.Frac(stats.BucketCompute))
	}
	tw.Flush()
}

// PrintCritPath renders the critical-path attribution for Figure 4's
// runs: which processor finished last, and where its cycles went. The
// interesting columns are the two network shares — net-lat is time the
// path waited on uncongested message flight (irreducible at a given
// HopLatency), net-bw the serialization/queueing/occupancy remainder —
// because they separate the latency sensitivity the paper measures from
// the bandwidth sensitivity.
func PrintCritPath(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Critical path: last-finishing processor's cycles by cause")
	fmt.Fprintln(w, "(percentages of that processor's total; categories are exhaustive and sum to 100)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tmechanism\tnode\tcycles\tcompute%\tmem%\tnet-lat%\tnet-bw%\tsync%")
	for _, row := range rows {
		cp := row.Res.CritPath
		if cp == nil {
			continue
		}
		pct := func(v int64) float64 {
			if cp.TotalCycles == 0 {
				return 0
			}
			return 100 * float64(v) / float64(cp.TotalCycles)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.0f\t%.0f\t%.1f\t%.1f\t%.0f\n",
			row.App, row.Res.Mech, cp.Node, cp.TotalCycles,
			pct(cp.Compute), pct(cp.MemStall), pct(cp.NetLatency), pct(cp.NetBandwidth), pct(cp.Sync))
	}
	tw.Flush()
}

// PrintFig5 renders the communication-volume breakdowns.
func PrintFig5(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 5: Communication volume by mechanism")
	fmt.Fprintln(w, "(bytes injected into the network, by protocol component)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tmechanism\ttotal\tx-SM\tinval\treq\thdrs\tdata")
	var smTotal int64
	for _, row := range rows {
		v := row.Res.Volume
		if row.Res.Mech == apps.SM {
			smTotal = v.Total()
		}
		rel := float64(v.Total()) / float64(smTotal)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%d\t%d\t%d\t%d\n",
			row.App, row.Res.Mech, v.Total(), rel,
			v.Bytes[stats.VolInvalidates], v.Bytes[stats.VolRequests],
			v.Bytes[stats.VolHeaders], v.Bytes[stats.VolData])
	}
	tw.Flush()
}

// fig3Row is one operation of Figure 3's cost table.
type fig3Row struct {
	label, key string  // printed name and CSV key
	measured   float64 // NaN when the machine cannot host the operation
	paper      string  // the paper's cost as printed, a range where it gives one
	paperCSV   string  // the paper's cost as one CSV number
}

// fig3Rows lists Figure 3's operations with their measured costs.
func fig3Rows(mp core.MissPenalties) []fig3Row {
	return []fig3Row{
		{"local read miss", "local_read", mp.LocalRead, "11", "11"},
		{"remote clean read", "remote_clean_read", mp.RemoteCleanRead, "38-42", "40"},
		{"remote dirty read (3-party)", "remote_dirty_read_3party", mp.RemoteDirtyRead, "63", "63"},
		{"LimitLESS sw read", "limitless_read", mp.LimitLESSRead, "425", "425"},
		{"local write miss", "local_write", mp.LocalWrite, "12", "12"},
		{"remote clean write", "remote_clean_write", mp.RemoteCleanWrite, "38-40", "39"},
		{"remote write, 1 inval", "remote_inval_write", mp.RemoteInvalWrite, "43-66", "55"},
		{"remote dirty write (3-party)", "remote_dirty_write_3party", mp.RemoteDirtyWrite, "66-84", "75"},
		{"LimitLESS sw write", "limitless_write", mp.LimitLESSWrite, "707", "707"},
		{"null active message", "null_active_message", mp.NullAMCycles, "102 + 0.8/hop", "102"},
		{"one-way 24B network latency", "net_latency_24B", mp.NetLatency24, "15", "15"},
	}
}

// measuredText renders a measured cost to one decimal, or missing when it
// was not measured (NaN).
func measuredText(v float64, missing string) string {
	if math.IsNaN(v) {
		return missing
	}
	return fmt.Sprintf("%.1f", v)
}

// PrintFig3 renders the measured miss penalties against the paper's. An
// operation the machine has no nodes for prints "-".
func PrintFig3(w io.Writer, cfg machine.Config) core.MissPenalties {
	mp := core.MeasureMissPenalties(cfg)
	fmt.Fprintln(w, "Figure 3 (cost table): shared-memory penalties, measured vs paper")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "operation\tmeasured (cycles)\tpaper (cycles)")
	for _, r := range fig3Rows(mp) {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.label, measuredText(r.measured, "-"), r.paper)
	}
	tw.Flush()
	return mp
}

// printSweep renders a sweep as one series per mechanism (the paper's
// line plots), with runtime in cycles. A mechanism a point did not
// measure (a crashed run) prints "-".
func printSweep(w io.Writer, title, xlabel string, mechs []apps.Mechanism, pts []core.SweepPoint) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", xlabel)
	for _, m := range mechs {
		fmt.Fprintf(tw, "\t%s", m.Short())
	}
	fmt.Fprintln(tw)
	for _, pt := range pts {
		fmt.Fprintf(tw, "%.1f", pt.X)
		for _, m := range mechs {
			if r, ok := pt.Results[m]; ok {
				fmt.Fprintf(tw, "\t%d", r.Cycles)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// SweepFigure is one of the paper's sweep figures, defined once for its
// simulated and its predicted form: the axis over the paper's grid, the
// labels, and what is derived from the sweep.
type SweepFigure struct {
	Num      int
	Subject  string // what the figure plots execution cycles against
	XLabel   string // x column of the printed table
	CSVLabel string // x column of the CSV
	// Axis builds the figure's axis over the paper's grid.
	Axis func(base machine.Config) core.Axis
	// Crossover prints where the SM and MP-poll curves cross.
	Crossover bool
	// Regions is the conceptual figure classified from this sweep, if
	// any.
	Regions *RegionFigure
}

// RegionFigure is one of the paper's conceptual Figures 1 and 2,
// measured: the performance region of every interval of a sweep for
// each of Mechs.
type RegionFigure struct {
	Num   int
	Title string
	Mechs []apps.Mechanism
}

// SweepFigures are Figures 8, 9 and 10, in paperbench's order.
// Bisection sweeps run in decreasing-bandwidth order, which is
// increasing stress, so Figure 1 classifies Figure 8's points as given.
var SweepFigures = []SweepFigure{
	{
		Num: 8, Subject: "bisection bandwidth", XLabel: "bytes/cycle", CSVLabel: "bisection_bytes_per_cycle",
		Axis: func(base machine.Config) core.Axis {
			return core.BisectionAxis(base, core.ScaleCrossRates(base, core.DefaultCrossRates))
		},
		Crossover: true,
		Regions: &RegionFigure{Num: 1, Title: "performance regions as bisection bandwidth decreases",
			Mechs: []apps.Mechanism{apps.SM, apps.MPPoll}},
	},
	{
		Num: 9, Subject: "network latency (clock scaling)", XLabel: "net latency (cycles)", CSVLabel: "net_latency_cycles",
		Axis: func(base machine.Config) core.Axis { return core.ClockAxis(base, core.DefaultClockMHzs) },
	},
	{
		Num: 10, Subject: "emulated uniform latency", XLabel: "one-way latency (cycles)", CSVLabel: "one_way_latency_cycles",
		Axis: func(base machine.Config) core.Axis { return core.IdealLatencyAxis(base, core.DefaultIdealLatencies) },
		Regions: &RegionFigure{Num: 2, Title: "performance regions as network latency increases",
			Mechs: []apps.Mechanism{apps.SM, apps.SMPrefetch, apps.MPPoll}},
	},
}

// Run computes and prints the figure for one application on ax, with
// every mechanism, on r. It simulates every point, or, with predicted,
// solves them from one instrumented run per mechanism (with prune,
// simulating only the points the model distrusts). It returns the
// figure's points, measured or, predicted, the hybrid
// measured-where-validated curve, plus the predicted sweep itself.
func (f SweepFigure) Run(w io.Writer, r *core.Runner, app core.AppName, sc core.Scale, ax core.Axis, predicted, prune bool) (pts []core.SweepPoint, ps *core.PredictedSweep, err error) {
	if predicted {
		if ps, err = r.PredictedSweep(app, sc, apps.Mechanisms, ax, prune); err != nil {
			return nil, nil, err
		}
		PrintPredictedSweep(w, fmt.Sprintf("Figure %d (%s, predicted): execution cycles vs %s", f.Num, app, f.Subject),
			f.XLabel, apps.Mechanisms, ps)
		pts = ps.HybridPoints()
	} else {
		if pts, err = r.Sweep(app, sc, apps.Mechanisms, ax); err != nil {
			return nil, nil, err
		}
		printSweep(w, fmt.Sprintf("Figure %d (%s): execution cycles vs %s", f.Num, app, f.Subject),
			f.XLabel, apps.Mechanisms, pts)
	}
	if f.Crossover {
		if x, ok := core.Crossover(pts, apps.SM, apps.MPPoll); ok {
			fmt.Fprintf(w, "SM / MP-poll crossover at ~%.1f %s\n", x, f.XLabel)
		} else {
			fmt.Fprintln(w, "no SM / MP-poll crossover in range")
		}
	}
	return pts, ps, nil
}

// Fig7 runs and prints the cross-traffic message-length sensitivity.
// rate is the cross-traffic consumed on the paper's 32-node machine,
// scaled to cfg's bisection (core.ScaleCrossRates).
func Fig7(w io.Writer, r *core.Runner, app core.AppName, sc core.Scale, cfg machine.Config, rate float64, sizes []int) ([]core.SweepPoint, error) {
	mechs := []apps.Mechanism{apps.SM}
	rate = core.ScaleCrossRates(cfg, []float64{rate})[0]
	pts, err := r.Sweep(app, sc, mechs, core.MsgLenAxis(cfg, rate, sizes))
	if err != nil {
		return nil, err
	}
	printSweep(w, fmt.Sprintf("Figure 7 (%s): sensitivity to cross-traffic message length (%g bytes/cycle consumed)", app, rate),
		"msg bytes", mechs, pts)
	return pts, nil
}

// Print classifies pts (ordered by increasing communication stress) and
// prints the region of each interval per mechanism.
func (f RegionFigure) Print(w io.Writer, pts []core.SweepPoint) {
	fmt.Fprintf(w, "Figure %d (measured): %s\n", f.Num, f.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, m := range f.Mechs {
		regions := core.ClassifyRegions(pts, m)
		fmt.Fprintf(tw, "%s", m)
		for _, r := range regions {
			fmt.Fprintf(tw, "\t%s", r)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
