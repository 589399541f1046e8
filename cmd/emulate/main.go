package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machines"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run prints the table and returns the exit status: 1 for a bad flag
// value or a failed run, 2 for an unknown flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "em3d", "application: em3d, unstruc, iccg, moldyn")
	scaleName := fs.String("scale", "sweep", "workload scale")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int { fmt.Fprintf(stderr, "emulate: %v\n", err); return 1 }

	sc, err := core.ParseScale(*scaleName)
	if err != nil {
		return fail(err)
	}
	if !slices.Contains(core.AppNames, core.AppName(*appName)) {
		return fail(fmt.Errorf("unknown application %q (want one of %v)", *appName, core.AppNames))
	}

	fmt.Fprintf(stdout, "%s on emulated Table 1 machines (32 nodes each; runtimes in processor cycles)\n\n", *appName)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\ttopology\tSM\tMP-poll\tSM/MP\tnote")
	for _, m := range machines.EmulatableMachines() {
		cfg, note, err := machines.ConfigFor(m)
		if err != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t%v\n", m.Name, err)
			continue
		}
		mp, err := core.Run(core.RunConfig{App: core.AppName(*appName), Mech: apps.MPPoll,
			Scale: sc, Machine: cfg})
		if err != nil {
			return fail(err)
		}
		smText := "n/a"
		ratioText := "-"
		if note.SharedMemory {
			sm, err := core.Run(core.RunConfig{App: core.AppName(*appName), Mech: apps.SM,
				Scale: sc, Machine: cfg})
			if err != nil {
				return fail(err)
			}
			smText = fmt.Sprintf("%d", sm.Cycles)
			ratioText = fmt.Sprintf("%.2f", float64(sm.Cycles)/float64(mp.Cycles))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\n",
			m.Name, note.Topology, smText, mp.Cycles, ratioText, note.Comment)
	}
	tw.Flush()
	fmt.Fprintln(stdout, "\nShared-memory columns are shown only for machines that support it in")
	fmt.Fprintln(stdout, "Table 1. Topologies are approximated on a 32-node grid with matched")
	fmt.Fprintln(stdout, "bisection bandwidth and network latency (the paper's two parameters).")
	return 0
}
