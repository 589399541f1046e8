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
// Build compiles the DAG for that pass. After sorting the events into
// base-time order it folds into each one every term that does not
// depend on the point: the rigid gap since the chain's previous effect
// less the part of the wait the base run exposed (for a barrier marker
// or a completion, just the gap), and the wait's departure relative to
// its source chain's base position at that event. Solve then keeps one
// predicted position per chain and does, per event, two scaled
// roundings and a few integer adds and maxes, with no branch on the
// data.
// Its rounding (scaleTime) truncates once and compares the exact
// remainder with ±0.5, which equals math.Round for every product that
// fits an int64 (FuzzScaleTime); TestSolveMatchesRecurrence holds the
// compiled solve to the uncompiled recurrence on random DAGs.
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
