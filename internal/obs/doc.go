// Package obs is the simulator's deterministic observability layer:
// bounded recording of protocol events, thread-state spans and
// critical-path causal edges, and a Perfetto-loadable timeline export.
// It plays the role of Alewife's CMMU statistics counters for
// quantities the paper never plotted: when each thread runs and what it
// waits for, and which waits lie on the critical path. Counts a figure
// reads are typed fields of machine.Result, not kept here.
//
// All three recordings keep their last entries in one bounded type,
// Ring, which allocates its capacity in fixed chunks as entries arrive:
// a ring costs what its run recorded, up to its capacity. Causal edges
// are classified by EdgeKind and hold no pointer, so the edge ring and
// the copies CritRecorder.Edges returns give the garbage collector
// nothing to scan. Protocol events (cache misses, invalidations,
// messages, barriers, locks) can be dumped as text with DumpEvents: they
// exist for debugging protocol behaviour (a directory FIFO starvation is
// obvious in a dump) and for teaching — tracing one cache line through a
// run shows the paper's four-messages-per-value pattern directly.
//
// Determinism contract. Everything in this package observes only
// simulated time (sim.Time) and values handed to it by the (strictly
// single-threaded) simulation; it never reads the host clock, never uses
// randomness, and never iterates a map when producing output. Two runs of
// the same RunConfig therefore produce byte-identical dumps and
// timelines, and instrumentation never feeds back into simulated timing:
// an instrumented run's figure data is byte-identical to an
// uninstrumented run's. The package is enforced as simulator-facing by
// simlint (unseededrand/maporder/rawconc/closedscope).
package obs
