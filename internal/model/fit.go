package model

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Fit extracts AppParams from two baseline simulator runs (shared memory
// and polled message passing) of the same application, using the
// simulator's own counters: compute from the breakdown, values from the
// miss/message counts, per-value costs from the stall/overhead buckets,
// and bytes from the volume accounting. The result lets the analytical
// model be compared against measured sweeps with no hand-tuned numbers.
func Fit(smRun, mpRun core.RunResult, cfg machine.Config) (AppParams, MachineParams, error) {
	if smRun.Mech != apps.SM || mpRun.Mech != apps.MPPoll {
		return AppParams{}, MachineParams{}, fmt.Errorf("model: Fit wants SM and MP-poll runs, got %v and %v",
			smRun.Mech, mpRun.Mech)
	}
	procs := float64(cfg.Nodes())
	cyc := func(t stats.Breakdown, b stats.TimeBucket) float64 {
		clkPs := 1e6 / cfg.ClockMHz
		return float64(t.T[b]) / clkPs / procs
	}

	values := float64(smRun.Events.RemoteMisses()) / procs
	if values <= 0 {
		return AppParams{}, MachineParams{}, fmt.Errorf("model: SM run has no remote misses to fit")
	}
	mpMsgs := float64(mpRun.Events.MessagesSent) / procs
	if mpMsgs <= 0 {
		return AppParams{}, MachineParams{}, fmt.Errorf("model: MP run sent no messages")
	}

	oneWay := core.NetLatencyCycles(cfg)
	endpoint := cyc(smRun.Breakdown, stats.BucketMemWait)/values - 2*oneWay
	if endpoint < 0 {
		endpoint = 0
	}
	app := AppParams{
		ComputeCycles:    cyc(smRun.Breakdown, stats.BucketCompute),
		Values:           values,
		SMEndpointCycles: endpoint,
		SMBytes:          float64(smRun.Volume.Total()) / (values * procs),
		MPOverhead: (cyc(mpRun.Breakdown, stats.BucketMsgOverhead) +
			cyc(mpRun.Breakdown, stats.BucketMemWait)) / values,
		MPBytes:        float64(mpRun.Volume.Total()) / (values * procs),
		PrefetchHidden: 0.35, // the measured EM3D prefetch gain fraction
		SyncCycles:     cyc(mpRun.Breakdown, stats.BucketSync),
	}
	mp := MachineParams{
		Procs:            cfg.Nodes(),
		BisectionPerCyc:  smRun.Bisection,
		OneWayLatency:    oneWay,
		BaseOneWay:       oneWay,
		BisectionTraffic: core.BisectionCrossFrac,
	}
	return app, mp, nil
}
