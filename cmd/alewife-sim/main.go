package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run simulates one configuration, prints its measurements and returns
// the exit status: 1 for a bad flag value or a failed run, 2 for an
// unknown flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alewife-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "em3d", "application: em3d, unstruc, iccg, moldyn")
	mechName := fs.String("mech", "sm", "mechanism: sm, sm+pf, mp-int, mp-poll, bulk")
	scaleName := fs.String("scale", "default", "workload scale: tiny, sweep, default, full")
	clock := fs.Float64("clock", 20, "processor clock in MHz (the network is asynchronous)")
	cross := fs.Float64("cross", 0, "cross-traffic rate in bytes/cycle (bisection emulation)")
	xmsg := fs.Int("xmsg", 64, "cross-traffic message size in bytes")
	idealLat := fs.Int64("ideal-lat", 0, "if nonzero, uniform one-way latency in cycles (ideal network)")
	validate := fs.Bool("validate", true, "check the result against the sequential reference")
	traceN := fs.Int("trace", 0, "dump the last N protocol/message events after the run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int { fmt.Fprintf(stderr, "alewife-sim: %v\n", err); return 1 }

	mech, err := parseMech(*mechName)
	if err != nil {
		return fail(err)
	}
	sc, err := core.ParseScale(*scaleName)
	if err != nil {
		return fail(err)
	}

	cfg := machine.DefaultConfig()
	cfg.ClockMHz = *clock
	cfg.IdealNetOneWayCycles = *idealLat
	cfg.TraceCap = *traceN
	if *cross != 0 {
		cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: *xmsg, BytesPerCycle: *cross}
	}

	res, err := core.Run(core.RunConfig{
		App: core.AppName(*appName), Mech: mech, Scale: sc,
		Machine: cfg, SkipValidate: !*validate,
	})
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "%s / %s on %d-node machine @ %.0f MHz (scale %s)\n",
		res.App, res.Mech, cfg.Nodes(), cfg.ClockMHz, sc)
	fmt.Fprintf(stdout, "runtime: %d processor cycles (%v)\n", res.Cycles, res.Time)
	fmt.Fprintf(stdout, "bisection: native %.1f bytes/cycle, emulated %.1f\n",
		res.Bisection, res.EmulatedBisection)

	clk := sim.NewClock(cfg.ClockMHz)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\ntime breakdown\tcycles (sum over processors)\tshare")
	bd := res.Breakdown
	for b := stats.BucketSync; b <= stats.BucketCompute; b++ {
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\n", b, clk.ToCycles(bd.T[b]), 100*bd.Frac(b))
	}
	v := res.Volume
	fmt.Fprintln(tw, "\ncommunication volume\tbytes\t")
	fmt.Fprintf(tw, "invalidates\t%d\t\n", v.Bytes[stats.VolInvalidates])
	fmt.Fprintf(tw, "requests\t%d\t\n", v.Bytes[stats.VolRequests])
	fmt.Fprintf(tw, "headers\t%d\t\n", v.Bytes[stats.VolHeaders])
	fmt.Fprintf(tw, "data\t%d\t\n", v.Bytes[stats.VolData])
	fmt.Fprintf(tw, "total\t%d\t\n", v.Total())
	ev := res.Events
	fmt.Fprintln(tw, "\nevents\tcount\t")
	fmt.Fprintf(tw, "remote misses (clean/dirty)\t%d/%d\t\n", ev.RemoteMissesCln, ev.RemoteMissesDty)
	fmt.Fprintf(tw, "local misses\t%d\t\n", ev.LocalMisses)
	fmt.Fprintf(tw, "invalidations\t%d\t\n", ev.Invalidations)
	fmt.Fprintf(tw, "LimitLESS traps\t%d\t\n", ev.LimitLESSTraps)
	fmt.Fprintf(tw, "messages sent/received\t%d/%d\t\n", ev.MessagesSent, ev.MessagesRecv)
	fmt.Fprintf(tw, "interrupts / polls (hits)\t%d / %d (%d)\t\n", ev.Interrupts, ev.Polls, ev.PollHits)
	fmt.Fprintf(tw, "bulk transfers (payload bytes)\t%d (%d)\t\n", ev.BulkTransfers, ev.BulkBytes)
	fmt.Fprintf(tw, "prefetches issued/useful/useless\t%d/%d/%d\t\n",
		ev.PrefetchIssued, ev.PrefetchUseful, ev.PrefetchUseless)
	fmt.Fprintf(tw, "lock acquires (spins)\t%d (%d)\t\n", ev.LockAcquires, ev.LockSpins)
	fmt.Fprintf(tw, "barrier arrivals\t%d\t\n", ev.BarrierArrivals)
	tw.Flush()
	if res.Trace != nil {
		fmt.Fprintf(stdout, "\nlast %d trace events (of %d recorded):\n",
			len(res.Trace.Items()), res.Trace.Total())
		obs.DumpEvents(stdout, clk, res.Trace)
	}
	if *validate {
		fmt.Fprintln(stdout, "\nresult validated against sequential reference")
	}
	return 0
}

func parseMech(s string) (apps.Mechanism, error) {
	switch s {
	case "sm", "shared-memory":
		return apps.SM, nil
	case "sm+pf", "sm-prefetch", "prefetch":
		return apps.SMPrefetch, nil
	case "mp-int", "mp-interrupt", "interrupt":
		return apps.MPInterrupt, nil
	case "mp-poll", "poll":
		return apps.MPPoll, nil
	case "bulk", "bulk-dma", "dma":
		return apps.Bulk, nil
	}
	return 0, fmt.Errorf("unknown mechanism %q", s)
}
