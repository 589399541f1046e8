package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs one workload n times, each in a fresh process at its
// own seed, and prints every metric's median, quartiles and spread
// (interquartile range over median). An end-to-end metric whose spread
// exceeds its bound cannot gate a change and is flagged; one above a
// third of its bound is marked as too close. It returns the exit code.
func repeatRuns(workload string, seed int64, n int, seconds float64, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var runs []result
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: run at seed %d: %v\n", s, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: run at seed %d: %v\n", s, err)
			return 1
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, r.Correct, r.Attempted, r.Failed)
		runs = append(runs, r)
	}

	defs := e2eMetrics
	if trace == 1 {
		defs = layerMetrics
	}
	fmt.Printf("%-24s %-10s %14s %14s %14s %9s %7s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "bound")
	for _, d := range defs {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.Metrics[d.Name].Value
		}
		q1, med, q3 := quartiles(xs)
		spread := ratio(q3-q1, med)
		flag := ""
		switch {
		case d.Bound > 0 && spread > d.Bound:
			flag = "SPREAD ABOVE BOUND"
		case d.Bound > 0 && spread > d.Bound/3:
			flag = "spread above bound/3"
		}
		fmt.Printf("%-24s %-10s %14.6g %14.6g %14.6g %8.2f%% %6.0f%% %s\n", d.Name, d.Unit, q1, med, q3, 100*spread, 100*d.Bound, flag)
	}
	return 0
}

// quartiles returns the three cut points of xs into four groups by the
// exclusive method of Python's statistics.quantiles(xs, n=4). A single
// value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
