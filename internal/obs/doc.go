// Package obs is the simulator's deterministic observability layer: a
// metrics registry (counters, gauges, power-of-two histograms), bounded
// recording of protocol events, thread-state spans and critical-path
// causal edges, and a Perfetto-loadable timeline export. It plays the
// role of Alewife's CMMU statistics counters for quantities the paper
// never plotted: where cycles go per phase, which mesh links saturate
// under bisection cross-traffic, and how miss latency distributes.
//
// All three recordings keep their last entries in one bounded type,
// Ring. Protocol events (cache misses, invalidations, messages, barriers,
// locks) can be dumped as text with DumpEvents: they exist for debugging
// protocol behaviour (a directory FIFO starvation is obvious in a dump)
// and for teaching — tracing one cache line through a run shows the
// paper's four-messages-per-value pattern directly.
//
// Determinism contract. Everything in this package observes only
// simulated time (sim.Time) and values handed to it by the (strictly
// single-threaded) simulation; it never reads the host clock, never uses
// randomness, and never iterates a map when producing output. Two runs of
// the same RunConfig therefore produce byte-identical snapshots, dumps and
// timelines, and instrumentation never feeds back into simulated timing:
// an instrumented run's figure data is byte-identical to an
// uninstrumented run's. The package is enforced as simulator-facing by
// simlint (wallclock/unseededrand/maporder).
package obs
