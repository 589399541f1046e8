package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	// Every simulation but s1-512's is single-threaded. On a shared 2-vCPU
	// host a second P mostly adds noise, from goroutine wake-ups across
	// vCPUs and a concurrent collector on a contended vCPU: a job's
	// run-to-run spread was 15% with two Ps and 5% with one. s1-512's
	// tiled engine clamps its workers to GOMAXPROCS and runs one.
	runtime.GOMAXPROCS(1)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name)
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed    = flag.Int64("seed", 0, "input seed, added to every application generator's default seed")
		seconds = flag.Float64("seconds", 12, "an untraced run repeats passes over the workload until this many seconds have passed")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and the layer microbenchmarks and prints the per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes WORKLOAD/{spans.json,cpu.pprof,layers.json} into")
		repeat  = flag.Int("repeat", 0, "run the workload this many times in fresh processes at seeds seed, seed+1, ... and summarize the spread")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		if err == nil {
			err = fmt.Errorf("bench: bad arguments")
		}
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(w.Name, *seed, *repeat, *seconds, *trace))
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var (
		res  result
		errs []error
	)
	if *trace == 1 {
		res, errs = runTraced(w, *seed, filepath.Join(*out, w.Name), golden)
	} else {
		res, errs = runUntraced(w, *seed, *seconds, golden)
	}
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
	}
	if res.Metrics == nil {
		os.Exit(1) // the traced run could not write its artifacts
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s seed %d: %d simulations, %d failed\n", w.Name, *seed, res.Attempted, res.Failed)
	fmt.Println(string(b))
}
