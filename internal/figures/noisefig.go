package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
)

// DefaultNoiseSpec is the Figure S2 noise model when -noise is not given:
// heavy-tailed host noise (rare long OS/daemon interruptions dilating
// compute phases, the fennel LBMachine idiom) plus light exponential
// per-packet network noise. Means are in wall time — at the paper's
// 20 MHz clock, 2us of host noise is 40 cycles per compute phase and
// 100ns of net noise is 2 cycles per packet.
const DefaultNoiseSpec = "hostnoise:node=*,dist=heavytail,mean=2us;netnoise:node=*,dist=exp,mean=100ns"

// DefaultNoiseSeeds returns the Figure S2 seed schedule: n consecutive
// seeds from 1 (seed choice is arbitrary; consecutive seeds make reruns
// and cache hits predictable).
func DefaultNoiseSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// FigS2 runs and prints the noise-sensitivity experiment for one
// application — the paper's mechanism axis re-asked under stochastic
// noise, after Afzal, Hager & Wellein's observation that one-off delays
// propagate, decay, or amplify depending on communication structure.
// Two panels:
//
//   - runtime distribution: every mechanism runs under spec once per
//     seed; mean/p50/p99 show which mechanisms absorb noise and which
//     amplify it (round-trip-heavy shared memory waits on every noised
//     reply; one-way message passing overlaps it);
//   - delay propagation: a single injected delay on delayNode, and the
//     per-node completion shift grouped by hop distance from it.
func FigS2(w io.Writer, r *core.Runner, app core.AppName, sc core.Scale, base machine.Config, spec string, seeds []uint64, delayNode int) ([]core.NoiseDistribution, []core.PropagationResult, error) {
	dists, err := r.NoiseSeedSweep(app, sc, apps.Mechanisms, base, spec, seeds)
	if err != nil {
		return nil, nil, err
	}
	props, err := r.DelayPropagation(app, sc, apps.Mechanisms, base, delayNode)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "Figure S2 (%s): mechanism sensitivity to stochastic noise (beyond the paper)\n", app)
	fmt.Fprintf(w, "-- runtime distribution over %d noise seeds, spec %q --\n", len(seeds), spec)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mechanism\tn\tmean\tp50\tp99\tmax\tspread")
	for _, d := range dists {
		s := stats.Summarize(d.Cycles)
		if s.N == 0 {
			fmt.Fprintf(tw, "%s\t0\t-\t-\t-\t-\t-\n", d.Mech.Short())
			continue
		}
		// Spread is (max-min)/mean: the noise-induced runtime variation a
		// user of that mechanism would observe across identical jobs.
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%d\t%d\t%.1f%%\n",
			d.Mech.Short(), s.N, s.Mean, s.P50, s.P99, s.Max,
			100*float64(s.Max-s.Min)/s.Mean)
	}
	tw.Flush()
	fmt.Fprintf(w, "-- single-delay propagation from node %d --\n", delayNode)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mechanism\tbase\tdelay\tshift\tabsorbed\tshift by hop distance 0..max")
	for _, p := range props {
		absorbed := 100 * (1 - float64(p.RuntimeShift)/float64(p.DelayCycles))
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.0f%%\t", p.Mech.Short(), p.BaseCycles, p.DelayCycles, p.RuntimeShift, absorbed)
		for h, s := range p.ShiftByHops {
			if h > 0 {
				fmt.Fprint(tw, " ")
			}
			fmt.Fprintf(tw, "%.0f", s)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return dists, props, nil
}

// WriteNoiseCSV emits the Figure S2 experiment in long form: one
// (section, mechanism, key, value) row per measurement. Sections:
// "seeds" (key = seed, value = cycles), "summary" (key = statistic),
// "propagation" (key = base_cycles/at_cycles/delay_cycles/runtime_shift
// or shift_hops_<h>).
func WriteNoiseCSV(w io.Writer, dists []core.NoiseDistribution, props []core.PropagationResult) error {
	records := [][]string{{"section", "mechanism", "key", "value"}}
	row := func(section, mech, key, value string) {
		records = append(records, []string{section, mech, key, value})
	}
	for _, d := range dists {
		mech := d.Mech.String()
		for i, seed := range d.Seeds {
			row("seeds", mech, strconv.FormatUint(seed, 10), strconv.FormatInt(d.Cycles[i], 10))
		}
		s := stats.Summarize(d.Cycles)
		for _, kv := range []struct {
			k, v string
		}{
			{"n", strconv.Itoa(s.N)},
			{"mean", strconv.FormatFloat(s.Mean, 'f', 1, 64)},
			{"p50", strconv.FormatInt(s.P50, 10)},
			{"p99", strconv.FormatInt(s.P99, 10)},
			{"min", strconv.FormatInt(s.Min, 10)},
			{"max", strconv.FormatInt(s.Max, 10)},
		} {
			row("summary", mech, kv.k, kv.v)
		}
	}
	for _, p := range props {
		mech := p.Mech.String()
		for _, kv := range []struct {
			k string
			v int64
		}{
			{"base_cycles", p.BaseCycles},
			{"at_cycles", p.AtCycles},
			{"delay_cycles", p.DelayCycles},
			{"runtime_shift", p.RuntimeShift},
		} {
			row("propagation", mech, kv.k, strconv.FormatInt(kv.v, 10))
		}
		for h, s := range p.ShiftByHops {
			row("propagation", mech, fmt.Sprintf("shift_hops_%d", h), strconv.FormatFloat(s, 'f', 1, 64))
		}
	}
	return csv.NewWriter(w).WriteAll(records)
}
