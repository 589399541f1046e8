package core

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
)

// TestNodeScalingSweepDeterministic: the Figure S1 sweep is a pure
// function of its parameters, across fresh runners and both scaling
// modes. Run under -race this also certifies the concurrent fan-out.
func TestNodeScalingSweepDeterministic(t *testing.T) {
	cfg := machine.DefaultConfig()
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	nodes := []int{32, 64}
	for _, scaled := range []bool{false, true} {
		ax, err := NodeScalingAxis(cfg, nodes, scaled)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewRunner(0).Sweep(EM3D, ScaleTiny, mechs, ax)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRunner(0).Sweep(EM3D, ScaleTiny, mechs, ax)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("scaled=%v: two node-scaling sweeps differ", scaled)
		}
	}
}

// TestScalingModesCoincideAtBase: at the paper's 32-node machine the
// problem-growth factor is 1, so weak and strong scaling are the same
// run — the fingerprint normalizes the flag away and the runner serves
// the second mode from cache.
func TestScalingModesCoincideAtBase(t *testing.T) {
	cfg := machine.DefaultConfig()
	rc := RunConfig{App: ICCG, Mech: apps.MPPoll, Scale: ScaleTiny, Machine: cfg}
	weak := rc
	weak.ScaleProblem = true
	if fingerprint(rc) != fingerprint(weak) {
		t.Error("ScaleProblem not normalized away at 32 nodes")
	}
	r := NewRunner(1)
	if _, err := r.Run(rc); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(weak); err != nil {
		t.Fatal(err)
	}
	if hits, executed := r.Stats(); executed != 1 || hits != 1 {
		t.Errorf("executed=%d hits=%d, want the weak-scaled run served from cache", executed, hits)
	}
	// Away from the base size the flag is a real parameter.
	big, err := machine.ConfigForNodes(64)
	if err != nil {
		t.Fatal(err)
	}
	rc.Machine, weak.Machine = big, big
	if fingerprint(rc) == fingerprint(weak) {
		t.Error("ScaleProblem wrongly normalized away at 64 nodes")
	}
}

// TestNodeScalingSweepIsolatesUnpartitionable: a node count the fixed
// workload cannot be cut into (tiny em3d's 320-node graph on 512
// processors) yields a point with no results, not a sweep error — the
// same crash-isolation contract the other sweeps follow.
func TestNodeScalingSweepIsolatesUnpartitionable(t *testing.T) {
	cfg := machine.DefaultConfig()
	ax, err := NodeScalingAxis(cfg, []int{32, 512}, false)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := NewRunner(1).Sweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM}, ax)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if _, ok := pts[0].Results[apps.SM]; !ok {
		t.Error("32-node point missing its result")
	}
	if len(pts[1].Results) != 0 {
		t.Errorf("512-node point has %d results, want none (unpartitionable)", len(pts[1].Results))
	}
}

// TestNewAppSizedPartitionersDeterministic builds every application
// twice at non-default geometries and requires deep equality: the
// partitioners (block ranges, RCB, graph distribution) must be pure
// functions of (scale, procs), with no hidden global state. Weak
// scaling exercises the problem-growth path too.
func TestNewAppSizedPartitionersDeterministic(t *testing.T) {
	for _, procs := range []int{8, 64, 128} {
		for _, name := range AppNames {
			for _, scaled := range []bool{false, true} {
				a, err := NewAppSized(name, ScaleTiny, procs, scaled)
				if err != nil {
					t.Fatalf("%s at %d procs (scaled=%v): %v", name, procs, scaled, err)
				}
				b, err := NewAppSized(name, ScaleTiny, procs, scaled)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s at %d procs (scaled=%v): two builds differ", name, procs, scaled)
				}
			}
		}
	}
	// Invalid geometries are errors, not panics.
	if _, err := NewAppSized(UNSTRUC, ScaleTiny, 48, false); err == nil {
		t.Error("unstruc accepted non-power-of-two 48 procs")
	}
	if _, err := NewAppSized(MOLDYN, ScaleTiny, 48, false); err == nil {
		t.Error("moldyn accepted non-power-of-two 48 procs")
	}
	if _, err := NewAppSized(EM3D, ScaleTiny, 512, false); err == nil {
		t.Error("em3d accepted more procs than fixed-size graph nodes")
	}
}
