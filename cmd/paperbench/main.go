package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/machine"
)

// timelineSpanCap is the thread-state spans each run retains for its
// -timeline file (ring buffer capacity).
const timelineSpanCap = 4096

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")

	fig := flag.String("fig", "", "figure to regenerate (1-10, S1 for the node-scaling experiment, or S2 for the noise-sensitivity experiment; 6 is the topology diagram)")
	table := flag.Int("table", 0, "table number to regenerate (1 or 2)")
	all := flag.Bool("all", false, "regenerate every paper figure and table (S1 runs machines up to 512 nodes and must be requested explicitly)")
	list := flag.Bool("list", false, "list every artifact paperbench can produce, then exit")
	nodes := flag.Int("nodes", 0, "machine size in nodes for all figures (power of two up to 512; 0 = the paper's 32-node 8x4 mesh)")
	cacheDir := flag.String("cache", "", "persist run results in this directory and reuse them across processes")
	appFlag := flag.String("app", "", "restrict sweep figures to one app (default: all four)")
	scaleName := flag.String("scale", "", "workload scale override (tiny, sweep, default, full)")
	csvDir := flag.String("csv", "", "also write machine-readable CSV files into this directory")
	modelCmp := flag.Bool("model", false, "print the analytical model vs simulator comparison")
	predictFlag := flag.Bool("predict", false, "solve the sweep figures (8, 9, 10) from one instrumented run per "+
		"mechanism via the dependency-graph model instead of simulating every point, and print the "+
		"predicted-vs-simulated validation matrix with -fig 4; with -model, adds the graph-vs-closed-form comparison")
	prune := flag.Bool("prune", false, "with -predict: simulate only the base, low-confidence, and "+
		"near-crossover points of each sweep instead of validating the whole grid")
	predictErr := flag.Float64("predicterr", 0, "with -predict: exit nonzero if the worst "+
		"predicted-vs-simulated error over all validated points exceeds this percentage (0 = report only)")
	jobs := flag.Int("j", 0, "parallel simulation workers (0 = all cores, 1 = serial)")
	faults := flag.String("faults", "", "deterministic fault injection spec, e.g. "+
		"'jitter:max=200ns,prob=0.1;outage:node=*,start=10us,dur=2us,every=50us' (robustness studies)")
	seed := flag.Uint64("seed", 1, "fault schedule seed (used with -faults)")
	noise := flag.String("noise", figures.DefaultNoiseSpec, "stochastic noise spec for the Figure S2 "+
		"runtime-distribution panel (hostnoise/netnoise clauses; see internal/fault)")
	noiseSeeds := flag.Int("noiseseeds", 8, "number of noise seeds (1..N) for the Figure S2 runtime distribution")
	timelineDir := flag.String("timeline", "", "write a Perfetto trace-event JSON timeline and a metrics "+
		"snapshot per executed run into this directory (enables metrics collection; byte-identical across reruns)")
	critpath := flag.Bool("critpath", false, "profile the critical path: attribute every cycle of the "+
		"last-finishing processor to compute / memory stall / network latency / network bandwidth / "+
		"synchronization (prints a table with -fig 4, adds a critpath_fig4.csv with -csv, the "+
		"summary to each -runlog record, and a critpath lane with -timeline)")
	runlog := flag.String("runlog", "", "write one JSON run record per simulation run (configuration, "+
		"outcome, measurements, memoization, wall time) to this file")
	dumpTrace := flag.Int("dumptrace", 0, "retain up to n protocol trace events per run and dump them to stderr "+
		"(with -timeline, the events also appear in the timeline JSON)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a host heap profile to this file on success")
	flag.Parse()

	if _, err := fault.New(*faults, *seed, *noise, 0); err != nil {
		log.Fatalf("-faults/-noise: %v", err)
	}
	if *noiseSeeds < 1 {
		log.Fatal("-noiseseeds must be at least 1")
	}
	// scOr returns the -scale override, or the figure's own default
	// scale when -scale is not given.
	scOr := func(def core.Scale) core.Scale { return def }
	if *scaleName != "" {
		sc, err := core.ParseScale(*scaleName)
		if err != nil {
			log.Fatal(err)
		}
		scOr = func(core.Scale) core.Scale { return sc }
	}
	if (*prune || *predictErr != 0) && !*predictFlag {
		log.Fatal("-prune and -predicterr only apply with -predict")
	}
	// predMax tracks the worst predicted-vs-simulated error across every
	// predicted sweep of the invocation; -predicterr gates the exit code
	// on it.
	predMax := 0.0
	notePred := func(ps *core.PredictedSweep) {
		if m := ps.Errors().MaxPct; m > predMax {
			predMax = m
		}
	}

	cfg := machine.DefaultConfig()
	if *nodes != 0 {
		var err error
		cfg, err = machine.ConfigForNodes(*nodes)
		if err != nil {
			log.Fatal(err)
		}
	}
	cfg.FaultSpec = *faults
	cfg.FaultSeed = *seed
	cfg.CritPath = *critpath

	if *list {
		figures.PrintCatalog(os.Stdout)
		return
	}

	core.SetDefaultWorkers(*jobs)

	// Profiling hooks. finishProfiles runs before every exit path that
	// matters (success and sweep failure); log.Fatal paths lose the
	// profile, which is fine — a fatally misconfigured run has nothing
	// worth profiling.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	finishProfiles := func() {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // report settled live-heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}
	}

	// Stats and failures are reported explicitly (not deferred): failure
	// reporting decides the exit code, and os.Exit skips defers.
	report := func() int {
		hits, executed := core.DefaultRunner.Stats()
		if executed > 0 || core.DefaultRunner.DiskHits() > 0 {
			line := fmt.Sprintf("paperbench: %d simulations on %d workers (%d cache hits",
				executed, core.DefaultRunner.Workers(), hits)
			if *cacheDir != "" {
				line += fmt.Sprintf(", %d from disk", core.DefaultRunner.DiskHits())
			}
			fmt.Fprintln(os.Stderr, line+")")
		}
		fails := core.DefaultRunner.Failures()
		if len(fails) == 0 {
			return 0
		}
		fmt.Fprintf(os.Stderr, "paperbench: %d run(s) FAILED; surviving points were still computed:\n", len(fails))
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %v\n", f)
		}
		return 1
	}

	writeCSV := func(name string, fn func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s"+"\n", f.Name())
	}

	out := os.Stdout
	if *cacheDir != "" {
		dc, err := core.OpenDiskCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		core.DefaultRunner.SetDiskCache(dc)
	}

	// Observability sinks. All sim-side collection is passive (counters
	// and ring buffers keyed off simulated time), so enabling it changes
	// no figure output.
	if *timelineDir != "" || *runlog != "" || *dumpTrace > 0 {
		tele := &core.Telemetry{Heartbeat: os.Stderr}
		if *timelineDir != "" {
			if err := os.MkdirAll(*timelineDir, 0o755); err != nil {
				log.Fatal(err)
			}
			tele.TimelineDir = *timelineDir
			cfg.Metrics = true
			cfg.SpanCap = timelineSpanCap
		}
		if *runlog != "" {
			f, err := os.Create(*runlog)
			if err != nil {
				log.Fatal(err)
			}
			tele.RunLog = f // os.File writes are unbuffered; exit needs no close
		}
		if *dumpTrace > 0 {
			cfg.TraceCap = *dumpTrace
			tele.TraceOut = os.Stderr
		}
		core.DefaultRunner.SetTelemetry(tele)
	}

	appsToRun := core.AppNames
	if *appFlag != "" {
		appsToRun = []core.AppName{core.AppName(*appFlag)}
	}
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	want := func(n int) bool { return *all || *fig == strconv.Itoa(n) }
	wantS1 := strings.EqualFold(*fig, "S1") // deliberately outside -all: runs machines up to 512 nodes
	wantS2 := strings.EqualFold(*fig, "S2") // deliberately outside -all: every point is a fresh seed, nothing memoizes across specs
	sep := func() {
		fmt.Fprintln(out, "\n----------------------------------------------------------------")
	}

	ranSomething := false

	if want(3) {
		ranSomething = true
		mp := figures.PrintFig3(out, cfg)
		writeCSV("fig3_miss_penalties.csv", func(w *os.File) error {
			return figures.WriteMissPenaltiesCSV(w, mp)
		})
		sep()
	}
	var fig4rows []figures.Fig4Row
	if want(4) || want(5) {
		ranSomething = true
		rows, err := figures.Fig4Data(scOr(core.ScaleDefault), cfg)
		check(err)
		fig4rows = rows
	}
	if want(4) {
		figures.PrintFig4(out, fig4rows)
		writeCSV("fig4_breakdowns.csv", func(w *os.File) error {
			return figures.WriteFig4CSV(w, fig4rows)
		})
		if *critpath {
			fmt.Fprintln(out)
			figures.PrintCritPath(out, fig4rows)
			writeCSV("critpath_fig4.csv", func(w *os.File) error {
				return figures.WriteCritPathCSV(w, fig4rows)
			})
		}
		if *predictFlag {
			fmt.Fprintln(out)
			prows, pstats, err := figures.PredFig4(out, appsToRun, scOr(core.ScaleDefault), cfg, *prune)
			check(err)
			if pstats.MaxPct > predMax {
				predMax = pstats.MaxPct
			}
			writeCSV("predicted_fig4.csv", func(w *os.File) error {
				return figures.WritePredictedFig4CSV(w, prows)
			})
			writeCSV("predicted_tolerance.csv", func(w *os.File) error {
				return figures.WriteLatencyToleranceCSV(w, prows)
			})
		}
		sep()
	}
	if want(5) {
		figures.PrintFig5(out, fig4rows)
		sep()
	}
	if want(6) {
		ranSomething = true
		fmt.Fprintln(out, "Figure 6: cross-traffic topology — I/O nodes on both edge columns of the")
		fmt.Fprintln(out, "8x4 mesh stream messages across the bisection in both directions; see")
		fmt.Fprintln(out, "internal/mesh (StartCrossTraffic) and its tests for the geometry.")
		sep()
	}
	if want(7) {
		ranSomething = true
		for _, app := range appsToRun[:1] { // the paper shows one app here
			_, err := figures.Fig7(out, app, scOr(core.ScaleSweep), cfg, 10,
				[]int{16, 32, 64, 128, 256})
			check(err)
		}
		sep()
	}
	for _, sf := range figures.SweepFigures {
		regions := sf.Regions != nil && want(sf.Regions.Num)
		if !want(sf.Num) && !regions {
			continue
		}
		ranSomething = true
		ax := sf.Axis(cfg)
		pts := map[core.AppName][]core.SweepPoint{}
		for _, app := range appsToRun {
			p, ps, err := sf.Run(out, app, scOr(core.ScaleSweep), ax, *predictFlag, *prune)
			check(err)
			pts[app] = p
			name := fmt.Sprintf("fig%d_%s.csv", sf.Num, app)
			if ps != nil {
				notePred(ps)
				name = "predicted_" + name
			}
			writeCSV(name, func(w *os.File) error {
				if ps != nil {
					return figures.WritePredictedCSV(w, sf.CSVLabel, apps.Mechanisms, ps)
				}
				return figures.WriteSweepCSV(w, sf.CSVLabel, apps.Mechanisms, p)
			})
			fmt.Fprintln(out)
		}
		sep()
		if regions {
			for _, app := range appsToRun {
				fmt.Fprintf(out, "[%s] ", app)
				sf.Regions.Print(out, pts[app])
			}
			sep()
		}
	}
	if wantS1 {
		ranSomething = true
		for _, app := range appsToRun {
			fixed, scaled, err := figures.FigS1(out, app, scOr(core.ScaleSweep), cfg,
				core.DefaultScalingNodes)
			check(err)
			app := app
			writeCSV(fmt.Sprintf("figS1_%s.csv", app), func(w *os.File) error {
				return figures.WriteScalingCSV(w, apps.Mechanisms, fixed, scaled)
			})
			fmt.Fprintln(out)
		}
		sep()
	}
	if wantS2 {
		ranSomething = true
		seeds := figures.DefaultNoiseSeeds(*noiseSeeds)
		for _, app := range appsToRun {
			dists, props, err := figures.FigS2(out, app, scOr(core.ScaleSweep), cfg, *noise, seeds, 0)
			check(err)
			app := app
			writeCSV(fmt.Sprintf("figS2_%s.csv", app), func(w *os.File) error {
				return figures.WriteNoiseCSV(w, dists, props)
			})
			fmt.Fprintln(out)
		}
		sep()
	}
	if *modelCmp || *all {
		ranSomething = true
		lats := []int64{15, 50, 100, 200}
		for _, app := range appsToRun {
			if _, err := figures.PrintModelComparison(out, app, scOr(core.ScaleSweep), cfg, lats); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintln(out)
			if *predictFlag {
				graphErr, _, err := figures.PrintGraphVsClosedForm(out, app, scOr(core.ScaleSweep), cfg, lats)
				check(err)
				if graphErr.MaxPct > predMax {
					predMax = graphErr.MaxPct
				}
				fmt.Fprintln(out)
			}
		}
		figures.PrintLogP(out, cfg)
		sep()
	}
	if *all || *table == 1 {
		ranSomething = true
		figures.PrintTable1(out)
	}
	if *all || *table == 2 {
		ranSomething = true
		if *all {
			fmt.Fprintln(out)
		}
		figures.PrintTable2(out)
	}
	if !ranSomething {
		flag.Usage()
		os.Exit(2)
	}
	finishProfiles()
	code := report()
	if *predictFlag && *predictErr > 0 {
		verdict := "within"
		if predMax > *predictErr {
			verdict = "EXCEEDS"
			if code == 0 {
				code = 1
			}
		}
		fmt.Fprintf(os.Stderr, "paperbench: worst predicted-vs-simulated error %.1f%% %s the -predicterr bound %.1f%%\n",
			predMax, verdict, *predictErr)
	}
	if code != 0 {
		os.Exit(code)
	}
}
