package moldyn

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// refReadPos is readPos, which loaded a molecule's position one Read
// per coordinate before op runs.
func (a *App) refReadPos(p *machine.Proc, mol int32) workload.Point3 {
	base := a.posRead[p.ID][mol]
	return workload.Point3{
		X: p.Read(base),
		Y: p.Read(base + 1),
		Z: p.Read(base + 2),
	}
}

// refForcePhase is forcePhase as it ran before op runs: one Read,
// Prefetch and Compute call per op, on the thread.
func (a *App) refForcePhase(p *machine.Proc, priv map[int32]*[3]float64) {
	pf := a.mech.UsesPrefetch()
	mine := a.myPairs[p.ID]
	for idx, e := range mine {
		pr := a.pairs[e]
		i, j := pr[0], pr[1]
		if pf && idx+2 < len(mine) {
			nxt := a.pairs[mine[idx+2]]
			p.Prefetch(a.posRead[p.ID][nxt[0]], false)
			p.Prefetch(a.posRead[p.ID][nxt[1]], false)
		}
		pi := a.refReadPos(p, i)
		pj := a.refReadPos(p, j)
		f := workload.PairForce(pi, pj, a.par.Cutoff)
		p.Compute(workload.MoldynFlopsPerInteraction*apps.CyclesPerFlop + pairOverheadCycles)
		ai, aj := privAt(priv, i), privAt(priv, j)
		ai[0] += f.X
		ai[1] += f.Y
		ai[2] += f.Z
		aj[0] -= f.X
		aj[1] -= f.Y
		aj[2] -= f.Z
		a.mech.ComputePoll(p, idx)
	}
}

// refBody is Body with refForcePhase.
func (a *App) refBody(p *machine.Proc) {
	if a.mech.UsesMessages() {
		p.SetRecvMode(a.mech.RecvMode())
	}
	priv := make(map[int32]*[3]float64)
	for it := 0; it < a.par.Iters; it++ {
		if it > 0 && it%a.par.ListEvery == 0 {
			p.Compute(rebuildCyclesPerMol * int64(len(a.myMols[p.ID])))
			if p.ID == 0 {
				a.rebuild()
			}
			a.bar.Wait(p)
			p.Compute(rebuildCyclesPerPair * int64(len(a.myPairs[p.ID])))
		}
		if a.mech.UsesMessages() {
			a.shipPositions(p)
		}
		a.refForcePhase(p, priv)
		a.flushPhase(p, priv)
		a.bar.Wait(p)
		a.updatePhase(p, priv)
		a.bar.Wait(p)
	}
}

// loopOutcome is everything a run leaves that the op runs must not
// change.
type loopOutcome struct {
	Res        machine.Result
	Spans      []obs.Span
	Dispatched uint64
}

// TestForcePhaseMatchesLoop checks the op-run forcePhase against the
// loop it replaced, for every mechanism at tiny scale.
func TestForcePhaseMatchesLoop(t *testing.T) {
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
