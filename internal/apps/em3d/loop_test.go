package em3d

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/obs"
)

// refComputePhase is computePhase as it ran before op runs: one Read,
// Prefetch and Compute call per op, on the thread.
func (a *App) refComputePhase(p *machine.Proc, ph int) {
	lo, hi := apps.BlockRange(a.par.Nodes, a.par.Procs, p.ID)
	coef := a.coef(ph)
	pf := a.mech.UsesPrefetch()
	for i := lo; i < hi; i++ {
		own := a.valAddr[ph][i]
		row := a.resolved[ph][i]
		if pf {
			p.Prefetch(own, true)
			if len(row) > 0 {
				p.Prefetch(row[0], false)
			}
			if len(row) > 1 {
				p.Prefetch(row[1], false)
			}
		}
		acc := p.Read(own)
		for d := range row {
			if pf && d+2 < len(row) {
				p.Prefetch(row[d+2], false)
			}
			v := p.Read(row[d])
			acc -= coef[i][d] * v
			p.Compute(2*apps.CyclesPerFlop + edgeOverheadCycles)
		}
		p.Write(own, acc)
	}
}

// refBody is Body with refComputePhase.
func (a *App) refBody(p *machine.Proc) {
	if a.mech.UsesMessages() {
		p.SetRecvMode(a.mech.RecvMode())
	}
	for it := 0; it < a.par.Iters; it++ {
		for ph := 0; ph < 2; ph++ {
			if a.mech.UsesMessages() {
				a.commStep(p, ph)
			}
			a.refComputePhase(p, ph)
			a.bar.Wait(p)
		}
	}
}

// loopOutcome is everything a run leaves that the op runs must not
// change.
type loopOutcome struct {
	Res        machine.Result
	Spans      []obs.Span
	Dispatched uint64
}

// TestComputePhaseMatchesLoop checks the op-run computePhase against
// the loop it replaced, for every mechanism at tiny scale.
func TestComputePhaseMatchesLoop(t *testing.T) {
	run := func(mech apps.Mechanism, ref bool) loopOutcome {
		a := New(tinyParams())
		cfg := machine.DefaultConfig()
		cfg.SpanCap = 1 << 14
		m := machine.New(cfg)
		a.Setup(m, mech)
		body := a.Body
		if ref {
			body = a.refBody
		}
		res := m.Run(body)
		if err := a.Validate(); err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		return loopOutcome{res, m.Spans.Items(), m.Eng.Dispatched()}
	}
	for _, mech := range apps.Mechanisms {
		if got, want := run(mech, false), run(mech, true); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: op runs give %d cycles and %d events, the loop %d cycles and %d events (or spans differ)",
				mech, got.Res.Cycles, got.Dispatched, want.Res.Cycles, want.Dispatched)
		}
	}
}
