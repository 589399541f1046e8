// Package predict re-solves one instrumented run across a whole
// (latency, bandwidth) sweep without re-simulating it.
//
// The critical-path recorder (internal/obs) captures a run's causal
// edges — message send→receive, miss→fill, barrier arrive→release —
// each decomposed into fixed protocol time, uncongested network
// latency, and serialization/occupancy. Build retains that stream as a
// dependency DAG whose nodes are per-processor intervals: consecutive
// effects on one processor chain are joined by rigid compute spans, and
// each edge contributes a wait of
//
//	fixed + k_lat·LatScale + k_bw·BWScale
//
// departing a source chain at its recorded start time. Solve is then a
// single longest-path pass in topological (base-time) order — the DAG
// is acyclic by construction since every edge points forward in base
// time — so a whole figure's grid costs milliseconds against one base
// simulation per mechanism. No LP solver, no floats in sim time: the
// solve is integer picosecond arithmetic with one rounding per scaled
// edge, which makes it bit-deterministic and exact at the base point.
//
// The model's honesty bound is congestion: waits rescale linearly, so
// points that drive the bisection deep into contention (the run's own
// traffic against a shrinking cut, or cross-traffic streams the edge
// DAG never saw — fed in via Point.ExtraRho) compound queueing the
// solve cannot see. Solve therefore reports a confidence — edge
// coverage discounted by estimated cut utilization — and the pruned
// sweep mode (core.Runner.PredictedSweep with prune) simulates exactly
// the points the model distrusts plus those near mechanism crossovers.
// ErrorStats is the predicted-vs-measured accumulation both this model
// and the closed-form internal/model are validated with.
//
// This package is host-side post-run analysis, deliberately outside
// simlint's sim scopes: it never runs in simulated time.
package predict
