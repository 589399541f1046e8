package main

// metricDef names one reported metric. End-to-end metrics carry the
// regression bound BENCHMARK.json publishes; per-layer metrics carry the
// layer they belong to and the end-to-end metric and workload they
// should move, which is the prediction a performance change states
// before it is measured.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64 // end-to-end: largest tolerated worsening, as a share of the parent's median
	Layer string  // per-layer: the package or bench-side span it measures
	Moves string  // per-layer: end-to-end metric and workload it should move
	// Higher marks a metric that is better when higher; all others are
	// better when lower.
	Higher bool
}

// e2eMetrics are printed by an untraced run, in this order. All are
// lower-is-better; runUntraced says how each is taken.
var e2eMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Bound: 0.10},
	{Name: "live_heap_mb", Unit: "MB", Bound: 0.10},
}

// layerMetrics are printed by a traced run (--trace 1), in this order.
// Counts come from one traced pass and are deterministic for a seed;
// _ns and _allocs figures come from the microbenchmarks in micro.go,
// which time one operation of a layer whether or not the workload uses
// it; _ms figures are bench-side span self times summed over the pass.
var layerMetrics = []metricDef{
	{Name: "sim.events", Unit: "count", Layer: "sim", Moves: "wall_s on mp-latency, then sm-latency"},
	{Name: "sim.handoffs", Unit: "count", Layer: "sim", Moves: "wall_s on mp-latency, then sm-latency"},
	{Name: "sim.handoffs_blocked", Unit: "count", Layer: "sim", Moves: "wall_s on mp-latency"},
	{Name: "sim.ns_per_event", Unit: "ns", Layer: "sim", Moves: "wall_s on every workload"},
	{Name: "sim.dispatch_ns", Unit: "ns/op", Layer: "sim", Moves: "wall_s on sm-latency, bisection"},
	{Name: "sim.dispatch_deep_ns", Unit: "ns/op", Layer: "sim", Moves: "wall_s on s1-512, bisection"},
	{Name: "sim.handoff_ns", Unit: "ns/op", Layer: "sim", Moves: "wall_s on mp-latency, then sm-latency; least on predict"},
	{Name: "sim.handoff_allocs", Unit: "allocs/op", Layer: "sim", Moves: "alloc_mb on mp-latency"},

	{Name: "mesh.packets", Unit: "count", Layer: "mesh", Moves: "wall_s on bisection"},
	{Name: "mesh.xtraffic_packets", Unit: "count", Layer: "mesh", Moves: "wall_s on bisection"},
	{Name: "mesh.bytes", Unit: "bytes", Layer: "mesh", Moves: "wall_s on bisection"},
	{Name: "mesh.send_ns", Unit: "ns/op", Layer: "mesh", Moves: "wall_s on bisection; barely on mp-latency"},
	{Name: "mesh.send_contended_ns", Unit: "ns/op", Layer: "mesh", Moves: "wall_s on bisection"},
	{Name: "mesh.send_allocs", Unit: "allocs/op", Layer: "mesh", Moves: "alloc_mb on bisection"},

	{Name: "mem.remote_misses", Unit: "count", Layer: "mem", Moves: "wall_s on sm-latency, s1-512; none on mp-latency"},
	{Name: "mem.local_misses", Unit: "count", Layer: "mem", Moves: "wall_s on sm-latency"},
	{Name: "mem.limitless_traps", Unit: "count", Layer: "mem", Moves: "wall_s on sm-latency"},
	{Name: "mem.invalidations", Unit: "count", Layer: "mem", Moves: "wall_s on sm-latency"},
	{Name: "mem.handoffs_miss", Unit: "count", Layer: "mem", Moves: "wall_s on sm-latency, s1-512"},
	{Name: "mem.remote_read_ns", Unit: "ns/op", Layer: "mem", Moves: "wall_s on sm-latency, s1-512; none on mp-latency"},
	{Name: "mem.remote_read_allocs", Unit: "allocs/op", Layer: "mem", Moves: "alloc_mb on sm-latency, s1-512"},

	{Name: "am.messages", Unit: "count", Layer: "am", Moves: "wall_s on mp-latency; none on sm-latency"},
	{Name: "am.bulk_bytes", Unit: "bytes", Layer: "am", Moves: "wall_s on mp-latency"},
	{Name: "am.polls", Unit: "count", Layer: "am", Moves: "wall_s on mp-latency"},
	{Name: "am.interrupts", Unit: "count", Layer: "am", Moves: "wall_s on mp-latency"},
	{Name: "am.handoffs_await", Unit: "count", Layer: "am", Moves: "wall_s on mp-latency"},
	{Name: "am.null_rtt_ns", Unit: "ns/op", Layer: "am", Moves: "wall_s on mp-latency; none on sm-latency"},
	{Name: "am.null_rtt_allocs", Unit: "allocs/op", Layer: "am", Moves: "alloc_mb on mp-latency"},

	{Name: "psync.barrier_arrivals", Unit: "count", Layer: "psync", Moves: "wall_s on s1-512"},
	{Name: "psync.lock_acquires", Unit: "count", Layer: "psync", Moves: "wall_s on sm-latency"},
	{Name: "psync.lock_spins", Unit: "count", Layer: "psync", Moves: "wall_s on sm-latency"},
	{Name: "psync.barrier_sm_ns", Unit: "ns/op", Layer: "psync", Moves: "wall_s on s1-512"},
	{Name: "psync.barrier_msg_ns", Unit: "ns/op", Layer: "psync", Moves: "wall_s on s1-512"},

	{Name: "apps.build_ms", Unit: "ms", Layer: "apps", Moves: "setup_s on s1-512"},
	{Name: "machine.new_ms", Unit: "ms", Layer: "machine", Moves: "setup_s, live_heap_mb on s1-512"},
	{Name: "apps.setup_ms", Unit: "ms", Layer: "apps", Moves: "setup_s on s1-512"},
	{Name: "machine.run_ms", Unit: "ms", Layer: "machine", Moves: "wall_s on every workload"},
	{Name: "apps.validate_ms", Unit: "ms", Layer: "apps", Moves: "none; validation is outside wall_s"},

	{Name: "obs.crit_edges", Unit: "count", Layer: "obs", Moves: "wall_s, alloc_mb, live_heap_mb on predict only"},
	{Name: "obs.edge_coverage", Unit: "ratio", Layer: "obs", Moves: "none; below 1 the prediction loses exactness", Higher: true},
	{Name: "obs.overhead_pct", Unit: "%", Layer: "obs", Moves: "wall_s on predict only"},
	{Name: "predict.build_ns", Unit: "ns/op", Layer: "predict", Moves: "wall_s on predict only"},
	{Name: "predict.build_allocs", Unit: "allocs/op", Layer: "predict", Moves: "alloc_mb on predict only"},
	{Name: "predict.solve_ns", Unit: "ns/op", Layer: "predict", Moves: "wall_s on predict only"},
	{Name: "predict.solves", Unit: "count", Layer: "predict", Moves: "wall_s on predict only"},

	{Name: "host.sim_pct", Unit: "%", Layer: "host", Moves: "wall_s on every workload"},
	{Name: "host.sched_pct", Unit: "%", Layer: "host", Moves: "wall_s on mp-latency, sm-latency, bisection"},
	{Name: "host.gc_pct", Unit: "%", Layer: "host", Moves: "wall_s, alloc_mb on every workload"},
	{Name: "host.mem_pct", Unit: "%", Layer: "host", Moves: "wall_s on sm-latency, s1-512"},
	{Name: "host.mesh_pct", Unit: "%", Layer: "host", Moves: "wall_s on bisection"},
	{Name: "host.am_pct", Unit: "%", Layer: "host", Moves: "wall_s on mp-latency"},
	{Name: "host.psync_pct", Unit: "%", Layer: "host", Moves: "wall_s on s1-512"},
	{Name: "host.apps_pct", Unit: "%", Layer: "host", Moves: "wall_s, setup_s on every workload"},
	{Name: "host.machine_pct", Unit: "%", Layer: "host", Moves: "wall_s, setup_s on s1-512"},
	{Name: "host.obs_pct", Unit: "%", Layer: "host", Moves: "wall_s on predict only"},
	{Name: "host.predict_pct", Unit: "%", Layer: "host", Moves: "wall_s on predict only"},
	{Name: "host.other_pct", Unit: "%", Layer: "host", Moves: "wall_s on every workload"},
	{Name: "host.raw_wall_s", Unit: "s", Layer: "host", Moves: "wall_s on the same workload; not scaled by host speed"},
	{Name: "host.ref_ms", Unit: "ms", Layer: "host", Moves: "none; the reference loop that measures host speed"},
	{Name: "host.peak_rss_mb", Unit: "MB", Layer: "host", Moves: "live_heap_mb on s1-512 and predict"},

	{Name: "trace.overhead_pct", Unit: "%", Layer: "trace", Moves: "none; cost of the traced run itself"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from values, which must hold
// every name in defs.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("bench: metric " + d.Name + " was not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}
