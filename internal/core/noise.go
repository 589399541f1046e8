package core

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/machine"
)

// This file is the Figure S2 methodology: the paper's mechanism axis
// re-asked under stochastic system noise (fennel's LBMachine idiom) and
// under a single injected delay (Afzal, Hager & Wellein's propagation
// question). Both experiments run on the memoized runner, so repeated
// regeneration is cheap and byte-identical.

// NoiseDistribution is one mechanism's runtime distribution across noise
// seeds under a fixed noise spec.
type NoiseDistribution struct {
	Mech   apps.Mechanism
	Seeds  []uint64 // the seeds actually measured, in input order
	Cycles []int64  // completion time per measured seed, parallel to Seeds
}

// NoiseSeedSweep measures each mechanism's runtime distribution under
// spec across the given seeds (Figure S2, distribution panel). Crashed
// seeds are isolated like crashed sweep points: absent from that
// mechanism's samples, reported via Runner.Failures. The sweep errors
// only when every run failed, or before any run when spec or
// base.FaultSpec is bad or holds a clause that belongs in the other.
func (r *Runner) NoiseSeedSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, spec string, seeds []uint64) ([]NoiseDistribution, error) {
	if _, err := fault.New(base.FaultSpec, base.FaultSeed, spec, 0); err != nil {
		return nil, err
	}
	jobs := make([]RunConfig, 0, len(mechs)*len(seeds))
	for _, mech := range mechs {
		for _, seed := range seeds {
			cfg := base
			cfg.NoiseSpec = spec
			cfg.NoiseSeed = seed
			jobs = append(jobs, RunConfig{App: app, Mech: mech, Scale: sc, Machine: cfg, SkipValidate: true})
		}
	}
	results, errs := r.RunBatchAll(jobs)
	if err := allFailed(errs); err != nil {
		return nil, err
	}
	out := make([]NoiseDistribution, len(mechs))
	for mi, mech := range mechs {
		d := NoiseDistribution{Mech: mech}
		for si, seed := range seeds {
			if j := mi*len(seeds) + si; errs[j] == nil {
				d.Seeds = append(d.Seeds, seed)
				d.Cycles = append(d.Cycles, results[j].Cycles)
			}
		}
		out[mi] = d
	}
	return out, nil
}

// PropagationResult is one mechanism's response to a single injected
// delay (Figure S2, propagation panel): how far the perturbation spreads
// across the mesh, measured as per-node completion shift grouped by hop
// distance from the delayed node.
type PropagationResult struct {
	Mech        apps.Mechanism
	BaseCycles  int64 // unperturbed completion time
	AtCycles    int64 // when the delay was injected, cycles
	DelayCycles int64 // injected delay length, cycles

	// RuntimeShift is the whole-machine completion shift (perturbed minus
	// baseline), in cycles. A shift near DelayCycles means the delay
	// propagated undamped to the critical path; near zero means the
	// mechanism absorbed it in slack.
	RuntimeShift int64

	// ShiftByHops[h] is the mean per-node completion shift in cycles over
	// the nodes at hop distance h from the delayed node. A flat curve
	// means the delay reached everyone (tight coupling); a decaying curve
	// means it stayed local.
	ShiftByHops []float64
}

// DelayPropagation measures how a single injected delay on node spreads
// per mechanism: a baseline run fixes each mechanism's unperturbed
// timeline, then a one-shot delay:node clause stalls the node for a tenth
// of the baseline runtime starting a quarter of the way in, and the
// per-node completion profile (Result.DoneCycles) is compared by hop
// distance. Mechanisms whose baseline crashed are omitted; the experiment
// errors only when every baseline failed.
func (r *Runner) DelayPropagation(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, node int) ([]PropagationResult, error) {
	if node < 0 || node >= base.Nodes() {
		return nil, fmt.Errorf("core: delay node %d outside the %d-node machine", node, base.Nodes())
	}
	baseJobs := make([]RunConfig, len(mechs))
	for i, mech := range mechs {
		baseJobs[i] = RunConfig{App: app, Mech: mech, Scale: sc, Machine: base, SkipValidate: true}
	}
	baseRes, baseErrs := r.RunBatchAll(baseJobs)
	if err := allFailed(baseErrs); err != nil {
		return nil, err
	}

	clk := clockOf(base)
	var live []int   // indices into mechs with a successful baseline
	var durs []int64 // injected delay length per job, cycles
	jobs := make([]RunConfig, 0, len(mechs))
	for i := range mechs {
		if baseErrs[i] != nil {
			continue
		}
		live = append(live, i)
		// At 25% of the baseline the machine is in steady state; a tenth
		// of the runtime (at least 1000 cycles) is large enough to see
		// above discretization but small enough to stay in the linear
		// response regime.
		durCycles := baseRes[i].Cycles / 10
		if durCycles < 1000 {
			durCycles = 1000
		}
		durs = append(durs, durCycles)
		spec := fault.Config{Delays: []fault.Delay{{
			Node: node,
			At:   baseRes[i].Time / 4,
			Dur:  clk.Cycles(durCycles),
		}}}.String()
		cfg := base
		cfg.NoiseSpec = spec
		jobs = append(jobs, RunConfig{App: app, Mech: mechs[i], Scale: sc, Machine: cfg, SkipValidate: true})
	}
	pertRes, pertErrs := r.RunBatchAll(jobs)
	if err := allFailed(pertErrs); err != nil {
		return nil, err
	}

	// Hop distances from the delayed node.
	geo := base.Mesh()
	hops := make([]int, base.Nodes())
	maxHops := 0
	for i := range hops {
		hops[i] = geo.Hops(node, i)
		if hops[i] > maxHops {
			maxHops = hops[i]
		}
	}

	var out []PropagationResult
	for ji, mi := range live {
		if pertErrs[ji] != nil {
			continue
		}
		b, p := baseRes[mi], pertRes[ji]
		pr := PropagationResult{
			Mech:         mechs[mi],
			BaseCycles:   b.Cycles,
			AtCycles:     clk.ToCycles(b.Time / 4),
			DelayCycles:  durs[ji],
			RuntimeShift: p.Cycles - b.Cycles,
			ShiftByHops:  make([]float64, maxHops+1),
		}
		counts := make([]int, maxHops+1)
		for n := range hops {
			pr.ShiftByHops[hops[n]] += float64(p.DoneCycles[n] - b.DoneCycles[n])
			counts[hops[n]]++
		}
		for h := range pr.ShiftByHops {
			if counts[h] > 0 {
				pr.ShiftByHops[h] /= float64(counts[h])
			}
		}
		out = append(out, pr)
	}
	return out, nil
}
