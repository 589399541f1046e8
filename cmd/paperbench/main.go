package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/machine"
)

// timelineSpanCap is the thread-state spans each run retains for its
// -timeline file (ring buffer capacity).
const timelineSpanCap = 4096

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// artifact is one row of the artifact table.
type artifact struct {
	sel   string // the selector that asks for it: -fig N, -table N or -model
	title string // its -list description
	all   bool   // whether -all includes it
	// gen prints the artifact to stdout and writes its CSVs.
	gen func(*invocation) error
}

// artifacts is everything paperbench regenerates, in the order a run
// generates it. Figure S1 stays out of -all because it runs machines up
// to 512 nodes, and Figure S2 because every point is a fresh seed that
// nothing else memoizes.
var artifacts = []artifact{
	{"-fig 3", "cost table: shared-memory miss penalties, measured vs paper", true, (*invocation).fig3},
	{"-fig 4", "runtime breakdowns per app and mechanism", true, (*invocation).fig4},
	{"-fig 5", "communication volume breakdowns per app and mechanism", true, (*invocation).fig5},
	{"-fig 6", "cross-traffic topology description (I/O nodes on the mesh edges)", true, (*invocation).fig6},
	{"-fig 7", "runtime vs cross-traffic message length", true, (*invocation).fig7},
	{"-fig 8", "runtime vs bisection bandwidth", true, sweep(figures.SweepFigures[0])},
	{"-fig 1", "bandwidth region classification (derived from the Figure 8 sweep)", true, regions(figures.SweepFigures[0])},
	{"-fig 9", "runtime vs network clock (latency+bandwidth scaling)", true, sweep(figures.SweepFigures[1])},
	{"-fig 10", "runtime vs one-way network latency", true, sweep(figures.SweepFigures[2])},
	{"-fig 2", "latency region classification (derived from the Figure 10 sweep)", true, regions(figures.SweepFigures[2])},
	{"-fig S1", "mechanism scaling with machine size, 32-512 nodes (beyond the paper)", false, (*invocation).figS1},
	{"-fig S2", "mechanism sensitivity to stochastic noise and single-delay propagation (beyond the paper)", false, (*invocation).figS2},
	{"-model", "analytical model vs simulator comparison, plus LogP parameters", true, (*invocation).model},
	{"-table 1", "parameter estimates for fourteen 32-processor machines", true, (*invocation).table1},
	{"-table 2", "the same parameters in units of local cache-miss latency", true, (*invocation).table2},
}

// invocation is what the artifacts of one paperbench run share: the
// flags they read, the runner they simulate on, and the results one
// artifact computes for another.
type invocation struct {
	out, stderr io.Writer
	r           *core.Runner
	cfg         machine.Config
	apps        []core.AppName
	scale       func(def core.Scale) core.Scale // the -scale override, or the artifact's own def

	all, predict, prune bool
	csvDir, noise       string
	noiseSeeds          int

	// predMax is the worst predicted-vs-simulated error so far, which
	// -predicterr gates the exit status on.
	predMax float64
	// fig4Runs holds Figure 4's runs, which Figure 5 also prints, and
	// sweeps each sweep figure's points by app, which its region figure
	// classifies; each is computed once per invocation.
	fig4Runs []figures.Fig4Row
	sweeps   map[int]map[core.AppName][]core.SweepPoint
}

// run is paperbench's command line: it generates the artifacts args
// select and returns the exit status, 0 on success, 1 for a bad flag
// value, a failed artifact or run, or a -predicterr breach, and 2 for
// an unknown flag or no artifact selected.
func run(args []string, stdout, stderr io.Writer) (code int) {
	inv := &invocation{out: stdout, stderr: stderr, sweeps: map[int]map[core.AppName][]core.SweepPoint{}}
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to regenerate (1-10, S1 for the node-scaling experiment, or S2 for the noise-sensitivity experiment; 6 is the topology diagram)")
	table := fs.Int("table", 0, "table number to regenerate (1 or 2)")
	fs.BoolVar(&inv.all, "all", false, "regenerate every paper figure and table (S1 runs machines up to 512 nodes and must be requested explicitly)")
	list := fs.Bool("list", false, "list every artifact paperbench can produce, then exit")
	nodes := fs.Int("nodes", 0, "machine size in nodes for all figures (power of two from 2 to 512; 0 = the paper's 32-node 8x4 mesh)")
	cacheDir := fs.String("cache", "", "persist run results in this directory and reuse them across processes")
	appFlag := fs.String("app", "", "restrict sweep figures to one app (default: all four)")
	scaleName := fs.String("scale", "", "workload scale override (tiny, sweep, default, full)")
	fs.StringVar(&inv.csvDir, "csv", "", "also write machine-readable CSV files into this directory")
	modelCmp := fs.Bool("model", false, "print the analytical model vs simulator comparison")
	fs.BoolVar(&inv.predict, "predict", false, "solve the sweep figures (8, 9, 10) from one instrumented run per "+
		"mechanism via the dependency-graph model instead of simulating every point, and print the "+
		"predicted-vs-simulated validation matrix with -fig 4; with -model, adds the graph-vs-closed-form comparison")
	fs.BoolVar(&inv.prune, "prune", false, "with -predict: simulate only the base, low-confidence, and "+
		"near-crossover points of each sweep instead of validating the whole grid")
	predictErr := fs.Float64("predicterr", 0, "with -predict: exit nonzero if the worst "+
		"predicted-vs-simulated error over all validated points exceeds this percentage (0 = report only)")
	jobs := fs.Int("j", 0, "parallel simulation workers (0 = all cores, 1 = serial)")
	faults := fs.String("faults", "", "deterministic fault injection spec, e.g. "+
		"'jitter:max=200ns,prob=0.1;outage:node=*,start=10us,dur=2us,every=50us' (robustness studies)")
	seed := fs.Uint64("seed", 1, "fault schedule seed (used with -faults)")
	fs.StringVar(&inv.noise, "noise", figures.DefaultNoiseSpec, "stochastic noise spec for the Figure S2 "+
		"runtime-distribution panel (hostnoise/netnoise clauses; see internal/fault)")
	fs.IntVar(&inv.noiseSeeds, "noiseseeds", 8, "number of noise seeds (1..N) for the Figure S2 runtime distribution")
	timelineDir := fs.String("timeline", "", "write a Perfetto trace-event JSON timeline and a metrics "+
		"snapshot per executed run into this directory (enables metrics collection; byte-identical across reruns)")
	critpath := fs.Bool("critpath", false, "profile the critical path: attribute every cycle of the "+
		"last-finishing processor to compute / memory stall / network latency / network bandwidth / "+
		"synchronization (prints a table with -fig 4, adds a critpath_fig4.csv with -csv, the "+
		"summary to each -runlog record, and a critpath lane with -timeline)")
	runlog := fs.String("runlog", "", "write one JSON run record per simulation run (configuration, "+
		"outcome, measurements, memoization, wall time) to this file")
	dumpTrace := fs.Int("dumptrace", 0, "retain up to n protocol trace events per run and dump them to stderr "+
		"(with -timeline, the events also appear in the timeline JSON)")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a host heap profile to this file on success")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int { fmt.Fprintf(stderr, "paperbench: %v\n", err); return 1 }

	if _, err := fault.New(*faults, *seed, inv.noise, 0); err != nil {
		return fail(fmt.Errorf("-faults/-noise: %v", err))
	}
	if inv.noiseSeeds < 1 {
		return fail(errors.New("-noiseseeds must be at least 1"))
	}
	inv.scale = func(def core.Scale) core.Scale { return def }
	if *scaleName != "" {
		sc, err := core.ParseScale(*scaleName)
		if err != nil {
			return fail(err)
		}
		inv.scale = func(core.Scale) core.Scale { return sc }
	}
	inv.apps = core.AppNames
	if *appFlag != "" {
		app := core.AppName(*appFlag)
		if !slices.Contains(core.AppNames, app) {
			return fail(fmt.Errorf("unknown application %q (want one of %v)", app, core.AppNames))
		}
		inv.apps = []core.AppName{app}
	}
	if (inv.prune || *predictErr != 0) && !inv.predict {
		return fail(errors.New("-prune and -predicterr only apply with -predict"))
	}
	inv.cfg = machine.DefaultConfig()
	if *nodes != 0 {
		if *nodes < 2 || *nodes&(*nodes-1) != 0 {
			return fail(fmt.Errorf("-nodes %d is not a power of two from 2", *nodes))
		}
		var err error
		if inv.cfg, err = machine.ConfigForNodes(*nodes); err != nil {
			return fail(err)
		}
	}
	inv.cfg.FaultSpec, inv.cfg.FaultSeed, inv.cfg.CritPath = *faults, *seed, *critpath

	if *list {
		fmt.Fprintln(stdout, "paperbench artifacts:")
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, a := range artifacts {
			fmt.Fprintf(tw, "  %s\t%s\n", a.sel, a.title)
		}
		tw.Flush()
		return 0
	}
	// An unset -fig or -table selects "-fig " or "-table 0", no row.
	selected := map[string]bool{"-fig " + strings.ToUpper(*fig): true, fmt.Sprintf("-table %d", *table): true, "-model": *modelCmp}
	var todo []artifact
	for _, a := range artifacts {
		if selected[a.sel] || inv.all && a.all {
			todo = append(todo, a)
		}
	}
	if len(todo) == 0 {
		fs.Usage()
		return 2
	}

	// Files written throughout the run close on every return; a close
	// error fails an otherwise successful run.
	var files []*os.File
	defer func() {
		for _, f := range files {
			if err := f.Close(); err != nil && code == 0 {
				code = fail(err)
			}
		}
	}()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		files = append(files, f)
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	inv.r = core.NewRunner(*jobs)
	if *cacheDir != "" {
		dc, err := core.OpenDiskCache(*cacheDir)
		if err != nil {
			return fail(err)
		}
		inv.r.SetDiskCache(dc)
	}
	// Observability sinks. All sim-side collection is passive (counters
	// and ring buffers keyed off simulated time), so enabling it changes
	// no figure output.
	if *timelineDir != "" || *runlog != "" || *dumpTrace > 0 {
		tele := &core.Telemetry{Heartbeat: stderr}
		if *timelineDir != "" {
			if err := os.MkdirAll(*timelineDir, 0o755); err != nil {
				return fail(err)
			}
			tele.TimelineDir = *timelineDir
			inv.cfg.Metrics = true
			inv.cfg.SpanCap = timelineSpanCap
		}
		if *runlog != "" {
			f, err := os.Create(*runlog)
			if err != nil {
				return fail(err)
			}
			files = append(files, f)
			tele.RunLog = f
		}
		if *dumpTrace > 0 {
			inv.cfg.TraceCap = *dumpTrace
			tele.TraceOut = stderr
		}
		inv.r.SetTelemetry(tele)
	}

	for _, a := range todo {
		if err := a.gen(inv); err != nil {
			return fail(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		files = append(files, f)
		runtime.GC() // report settled live-heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	code = report(stderr, inv.r, *cacheDir != "")
	if inv.predict && *predictErr > 0 {
		verdict := "within"
		if inv.predMax > *predictErr {
			verdict = "EXCEEDS"
			code = 1
		}
		fmt.Fprintf(stderr, "paperbench: worst predicted-vs-simulated error %.1f%% %s the -predicterr bound %.1f%%\n",
			inv.predMax, verdict, *predictErr)
	}
	return code
}

// report prints the run summary and every failed run to stderr, and
// returns 1 if a run failed.
func report(stderr io.Writer, r *core.Runner, disk bool) int {
	hits, executed := r.Stats()
	if executed > 0 || r.DiskHits() > 0 {
		line := fmt.Sprintf("paperbench: %d simulations on %d workers (%d cache hits", executed, r.Workers(), hits)
		if disk {
			line += fmt.Sprintf(", %d from disk", r.DiskHits())
		}
		fmt.Fprintln(stderr, line+")")
	}
	fails := r.Failures()
	if len(fails) == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "paperbench: %d run(s) FAILED; surviving points were still computed:\n", len(fails))
	for _, f := range fails {
		fmt.Fprintf(stderr, "  %v\n", f)
	}
	return 1
}

// csv writes the named CSV file into the -csv directory, if there is
// one.
func (inv *invocation) csv(name string, write func(io.Writer) error) error {
	if inv.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(inv.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(inv.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintf(inv.stderr, "wrote %s\n", f.Name())
	return f.Close()
}

func (inv *invocation) sep() {
	fmt.Fprintln(inv.out, "\n----------------------------------------------------------------")
}

// perApp runs gen for every app of the invocation, each followed by a
// blank line, then prints the separator.
func (inv *invocation) perApp(gen func(app core.AppName) error) error {
	for _, app := range inv.apps {
		if err := gen(app); err != nil {
			return err
		}
		fmt.Fprintln(inv.out)
	}
	inv.sep()
	return nil
}

func (inv *invocation) fig3() error {
	mp := figures.PrintFig3(inv.out, inv.cfg)
	inv.sep()
	return inv.csv("fig3_miss_penalties.csv", func(w io.Writer) error { return figures.WriteMissPenaltiesCSV(w, mp) })
}

// fig4Rows returns Figure 4's runs, running them on the first call.
func (inv *invocation) fig4Rows() (rows []figures.Fig4Row, err error) {
	if inv.fig4Runs == nil {
		inv.fig4Runs, err = figures.Fig4Data(inv.r, inv.scale(core.ScaleDefault), inv.cfg)
	}
	return inv.fig4Runs, err
}

// fig4 prints Figure 4, then with -critpath the critical-path table and
// with -predict the predicted-vs-simulated validation matrix.
func (inv *invocation) fig4() error {
	rows, err := inv.fig4Rows()
	if err != nil {
		return err
	}
	figures.PrintFig4(inv.out, rows)
	if err := inv.csv("fig4_breakdowns.csv", func(w io.Writer) error { return figures.WriteFig4CSV(w, rows) }); err != nil {
		return err
	}
	if inv.cfg.CritPath {
		fmt.Fprintln(inv.out)
		figures.PrintCritPath(inv.out, rows)
		if err := inv.csv("critpath_fig4.csv", func(w io.Writer) error { return figures.WriteCritPathCSV(w, rows) }); err != nil {
			return err
		}
	}
	if inv.predict {
		fmt.Fprintln(inv.out)
		prows, pstats, err := figures.PredFig4(inv.out, inv.r, inv.apps, inv.scale(core.ScaleDefault), inv.cfg, inv.prune)
		if err != nil {
			return err
		}
		inv.predMax = max(inv.predMax, pstats.MaxPct)
		if err := inv.csv("predicted_fig4.csv", func(w io.Writer) error { return figures.WritePredictedFig4CSV(w, prows) }); err != nil {
			return err
		}
		if err := inv.csv("predicted_tolerance.csv", func(w io.Writer) error { return figures.WriteLatencyToleranceCSV(w, prows) }); err != nil {
			return err
		}
	}
	inv.sep()
	return nil
}

func (inv *invocation) fig5() error {
	rows, err := inv.fig4Rows()
	if err != nil {
		return err
	}
	figures.PrintFig5(inv.out, rows)
	inv.sep()
	return nil
}

func (inv *invocation) fig6() error {
	fmt.Fprintln(inv.out, "Figure 6: cross-traffic topology — I/O nodes on both edge columns of the")
	fmt.Fprintln(inv.out, "8x4 mesh stream messages across the bisection in both directions; see")
	fmt.Fprintln(inv.out, "internal/mesh (StartCrossTraffic) and its tests for the geometry.")
	inv.sep()
	return nil
}

// fig7 prints Figure 7 for the first app only, as the paper does.
func (inv *invocation) fig7() error {
	if _, err := figures.Fig7(inv.out, inv.r, inv.apps[0], inv.scale(core.ScaleSweep), inv.cfg, 10,
		[]int{16, 32, 64, 128, 256}); err != nil {
		return err
	}
	inv.sep()
	return nil
}

// sweep returns the generator of sweep figure sf, which runs the sweep
// for every app, printing it and writing its CSVs, once per invocation.
func sweep(sf figures.SweepFigure) func(*invocation) error {
	return func(inv *invocation) error {
		if _, done := inv.sweeps[sf.Num]; done {
			return nil
		}
		ax := sf.Axis(inv.cfg)
		pts := map[core.AppName][]core.SweepPoint{}
		inv.sweeps[sf.Num] = pts
		return inv.perApp(func(app core.AppName) error {
			p, ps, err := sf.Run(inv.out, inv.r, app, inv.scale(core.ScaleSweep), ax, inv.predict, inv.prune)
			if err != nil {
				return err
			}
			pts[app] = p
			if ps != nil {
				inv.predMax = max(inv.predMax, ps.Errors().MaxPct)
				return inv.csv(fmt.Sprintf("predicted_fig%d_%s.csv", sf.Num, app), func(w io.Writer) error {
					return figures.WritePredictedCSV(w, sf.CSVLabel, apps.Mechanisms, ps)
				})
			}
			return inv.csv(fmt.Sprintf("fig%d_%s.csv", sf.Num, app), func(w io.Writer) error {
				return figures.WriteSweepCSV(w, sf.CSVLabel, apps.Mechanisms, p)
			})
		})
	}
}

// regions returns the generator of the region figure derived from sweep
// figure sf, which runs that sweep first if no earlier row did.
func regions(sf figures.SweepFigure) func(*invocation) error {
	return func(inv *invocation) error {
		if err := sweep(sf)(inv); err != nil {
			return err
		}
		for _, app := range inv.apps {
			fmt.Fprintf(inv.out, "[%s] ", app)
			sf.Regions.Print(inv.out, inv.sweeps[sf.Num][app])
		}
		inv.sep()
		return nil
	}
}

func (inv *invocation) figS1() error {
	return inv.perApp(func(app core.AppName) error {
		fixed, scaled, err := figures.FigS1(inv.out, inv.r, app, inv.scale(core.ScaleSweep), inv.cfg, core.DefaultScalingNodes)
		if err != nil {
			return err
		}
		return inv.csv(fmt.Sprintf("figS1_%s.csv", app), func(w io.Writer) error { return figures.WriteScalingCSV(w, apps.Mechanisms, fixed, scaled) })
	})
}

func (inv *invocation) figS2() error {
	seeds := figures.DefaultNoiseSeeds(inv.noiseSeeds)
	return inv.perApp(func(app core.AppName) error {
		dists, props, err := figures.FigS2(inv.out, inv.r, app, inv.scale(core.ScaleSweep), inv.cfg, inv.noise, seeds, 0)
		if err != nil {
			return err
		}
		return inv.csv(fmt.Sprintf("figS2_%s.csv", app), func(w io.Writer) error { return figures.WriteNoiseCSV(w, dists, props) })
	})
}

// model prints the analytical model against the simulator for every
// app, with -predict the dependency-graph model beside it, and the
// machine's LogP parameters.
func (inv *invocation) model() error {
	lats := []int64{15, 50, 100, 200}
	for _, app := range inv.apps {
		if _, err := figures.PrintModelComparison(inv.out, inv.r, app, inv.scale(core.ScaleSweep), inv.cfg, lats); err != nil {
			return err
		}
		fmt.Fprintln(inv.out)
		if inv.predict {
			graphErr, _, err := figures.PrintGraphVsClosedForm(inv.out, inv.r, app, inv.scale(core.ScaleSweep), inv.cfg, lats)
			if err != nil {
				return err
			}
			inv.predMax = max(inv.predMax, graphErr.MaxPct)
			fmt.Fprintln(inv.out)
		}
	}
	figures.PrintLogP(inv.out, inv.cfg)
	inv.sep()
	return nil
}

func (inv *invocation) table1() error {
	figures.PrintTable1(inv.out)
	return nil
}

// table2 prints Table 2, set off from Table 1 when -all prints both.
func (inv *invocation) table2() error {
	if inv.all {
		fmt.Fprintln(inv.out)
	}
	figures.PrintTable2(inv.out)
	return nil
}
