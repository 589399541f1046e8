package unstruc

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// refReadState is readState, which loaded a node's 3-component state
// through the cache, one Read per word, before op runs.
func (a *App) refReadState(p *machine.Proc, node int32) [3]float64 {
	base := a.stateRead[p.ID][node]
	var s [3]float64
	for k := 0; k < 3; k++ {
		s[k] = p.Read(base + mem.Addr(k))
	}
	return s
}

// refEdgePhase is edgePhase as it ran before op runs: one Read,
// Prefetch and Compute call per op, on the thread.
func (a *App) refEdgePhase(p *machine.Proc, priv map[int32]*[3]float64) {
	pf := a.mech.UsesPrefetch()
	edges := a.myEdges[p.ID]
	for idx, e := range edges {
		ed := a.mesh.Edges[e]
		u, v := ed[0], ed[1]
		if pf && idx+2 < len(edges) {
			nxt := a.mesh.Edges[edges[idx+2]]
			p.Prefetch(a.stateRead[p.ID][nxt[0]], false)
			p.Prefetch(a.stateRead[p.ID][nxt[1]], false)
		}
		su := a.refReadState(p, u)
		sv := a.refReadState(p, v)
		c := workload.EdgeContrib(su, sv)
		p.Compute(workload.UnstrucFlopsPerEdge*apps.CyclesPerFlop + edgeOverheadCycles)
		au := privAt(priv, u)
		av := privAt(priv, v)
		for k := 0; k < 3; k++ {
			au[k] += c[k]
			av[k] -= c[k]
		}
		a.mech.ComputePoll(p, idx)
	}
	for fi, f := range a.myFaces[p.ID] {
		fc := a.mesh.Faces[f]
		s0 := a.refReadState(p, fc[0])
		s1 := a.refReadState(p, fc[1])
		s2 := a.refReadState(p, fc[2])
		s3 := a.refReadState(p, fc[3])
		c := workload.FaceContrib(s0, s1, s2, s3)
		p.Compute(workload.UnstrucFlopsPerFace*apps.CyclesPerFlop + edgeOverheadCycles)
		signs := [4]float64{1, -1, 1, -1}
		for vi, v := range fc {
			acc := privAt(priv, v)
			for k := 0; k < 3; k++ {
				acc[k] += signs[vi] * c[k]
			}
		}
		a.mech.ComputePoll(p, len(edges)+fi)
	}
}

// refBody is Body with refEdgePhase.
func (a *App) refBody(p *machine.Proc) {
	if a.mech.UsesMessages() {
		p.SetRecvMode(a.mech.RecvMode())
	}
	priv := make(map[int32]*[3]float64, len(a.touched[p.ID]))
	for it := 0; it < a.par.Iters; it++ {
		if a.mech.UsesMessages() {
			a.shipState(p)
		}
		a.refEdgePhase(p, priv)
		a.flushPhase(p, priv)
		a.bar.Wait(p)
		a.updatePhase(p)
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

// TestEdgePhaseMatchesLoop checks the op-run edgePhase against the
// loop it replaced, for every mechanism at tiny scale.
func TestEdgePhaseMatchesLoop(t *testing.T) {
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
