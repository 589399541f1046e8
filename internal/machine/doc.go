// Package machine assembles the simulated multiprocessor: an Alewife-class
// node at every mesh router (Sparcle-like processor, CMMU memory system,
// network interface), plus the experiment knobs the paper turns — processor
// clock, cross-traffic bisection emulation, and the ideal-network
// (context-switch) latency emulation.
//
// A Proc's methods run on its simulated thread, each blocking call a
// sleep or a wait. Two kinds of loop run engine-side instead, as the
// steps of one sim.Thread.Spin with the same charges and events as on
// the thread: the spin-waits (SpinWhileEqual, ScanZeros and NextZero in
// spin.go), which resume the thread only for a poll that ends the wait
// or is not a plain hit, and op runs (Ops and Do in ops.go), straight-line
// reads, prefetches and computes, which resume it only for a read that
// is not a plain hit, a compute interrupted by a pending message, and
// the run's end.
package machine
