// Package fault provides deterministic, seeded fault and noise
// injection for the simulated machine.
//
// The fault half models discrete degradation events: link-outage
// windows on mesh links, bounded per-packet delay jitter, and endpoint
// drain stalls — the software analogue of the perturbations the paper
// applies to running hardware (cross-traffic, slowed clocks) and of the
// failure modes Alewife's CMMU recovers from (a blocked network output
// queue trapping to software).
//
// The noise half models the statistical imperfections of a real
// machine: per-node host noise dilating compute phases (hostnoise:),
// per-packet network delivery noise (netnoise:), and one-shot injected
// delays for perturbation-propagation studies (delay:). Magnitudes are
// drawn from configurable distributions — const, uniform, exp (von
// Neumann's comparison method), and a capped shifted-Pareto heavytail —
// sampled with integer arithmetic only, so draws are bit-identical on
// every platform and Go version.
//
// Determinism is the core contract: an Injector's entire schedule,
// stochastic or not, is a pure function of (Config, seed, query order).
// Host noise draws from one splitmix64 stream per node (the node id
// salts the seed), network noise from a dedicated stream consumed in
// delivery order; the simulator dispatches events in a total
// order, so two runs of the same configuration with the same seed see
// byte-identical schedules and therefore produce byte-identical
// results.
//
// Faults and noise only delay traffic or compute; they never drop
// anything. Every injection is therefore safe for protocol correctness
// — it stresses queueing, back-pressure, and retry paths without
// requiring recovery logic the modeled hardware does not have.
//
// Specs are canonical strings (Parse / Config.String round-trip, fuzzed
// by FuzzParseSpec), which keeps machine.Config comparable for the
// sweep runner's memo cache. Fault clauses (jitter, outage, stall) and
// noise clauses (hostnoise, netnoise, delay) are carried in separate
// machine.Config fields so fault schedules and noise seeds sweep
// independently.
package fault
