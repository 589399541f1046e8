package core_test

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestCritPathNetworkShare runs EM3D tiny with every observability sink
// enabled — metrics, trace ring, span ring, critical-path profiler — and
// checks the attribution invariant (the five categories sum to the
// critical path's length) and the Figure S2 finding as a share gap:
// shared memory's critical path carries substantial network round-trip
// time (the slack that damps an injected delay), while message
// passing's waits are producer synchronization with almost no exposed
// network time — which is why injected delay propagates to MP runtime
// nearly undamped.
func TestCritPathNetworkShare(t *testing.T) {
	netShare := map[apps.Mechanism]float64{}
	for _, mech := range []apps.Mechanism{apps.SM, apps.MPPoll} {
		cfg := machine.DefaultConfig()
		cfg.Metrics = true
		cfg.TraceCap = 512
		cfg.SpanCap = 512
		cfg.CritPath = true
		res, err := core.Run(core.RunConfig{
			App: core.EM3D, Mech: mech, Scale: core.ScaleTiny, Machine: cfg,
		})
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		cp := res.CritPath
		if cp == nil {
			t.Fatalf("%s: no critical-path summary", mech)
		}
		if sum := cp.Compute + cp.MemStall + cp.NetLatency + cp.NetBandwidth + cp.Sync; sum != cp.TotalCycles {
			t.Errorf("%s: categories sum to %d of %d total cycles", mech, sum, cp.TotalCycles)
		}
		netShare[mech] = float64(cp.NetLatency+cp.NetBandwidth) / float64(cp.TotalCycles)
	}
	if netShare[apps.SM] <= 2*netShare[apps.MPPoll] {
		t.Errorf("network share of the critical path: SM %.4f vs MP-poll %.4f; expected SM well above MP",
			netShare[apps.SM], netShare[apps.MPPoll])
	}
}

// stallBlame runs EM3D tiny against a from-the-start link outage long
// enough to trip the run deadline, and returns the watchdog diagnostic.
func stallBlame(t *testing.T) *sim.StallError {
	t.Helper()
	cfg := machine.DefaultConfig()
	// All of node 3's links go dark at t=0 for a full second — far past
	// the deadline — so the run cannot complete and the watchdog fires.
	cfg.FaultSpec = "outage:node=3,start=0us,dur=1000000us"
	cfg.DeadlineCycles = 2_000_000
	_, err := core.Run(core.RunConfig{
		App: core.EM3D, Mech: apps.MPPoll, Scale: core.ScaleTiny,
		Machine: cfg, SkipValidate: true,
	})
	if err == nil {
		t.Fatal("outage run completed; expected a deadline stall")
	}
	re, ok := err.(*core.RunError)
	if !ok || re.Stall == nil {
		t.Fatalf("outage run failed without a stall diagnostic: %v", err)
	}
	return re.Stall
}

// TestOutageStallBlame is the watchdog-blame regression for a link
// outage: the run fails as a deadline stall that blames every processor
// (none can pass a barrier while node 3 is cut off) with its wait
// reason, and the whole diagnostic — blame, times, dispatch count — is
// identical across reruns. Notes are excluded: subsystem dumps
// (directory state, link occupancy) iterate Go maps, so their order is
// not deterministic.
func TestOutageStallBlame(t *testing.T) {
	a, b := stallBlame(t), stallBlame(t)
	if a.Kind != sim.StallDeadline {
		t.Errorf("stall kind %v, want %v", a.Kind, sim.StallDeadline)
	}
	if n := machine.DefaultConfig().Nodes(); len(a.Blocked) != n {
		t.Errorf("deadline stall blames %d threads, want all %d processors", len(a.Blocked), n)
	}
	for _, th := range a.Blocked {
		if th.Reason == "" {
			t.Errorf("blocked thread %s carries no wait reason", th.Name)
		}
	}
	a.Notes, b.Notes = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stall diagnostic differs across reruns:\n1: %+v\n2: %+v", a, b)
	}
}
