// Package figures regenerates every table and figure of the paper's
// evaluation as text: the Figure 3 cost table, the Figure 4 runtime
// breakdowns, the Figure 5 communication-volume breakdowns, the Figure 7
// cross-traffic message-length sensitivity, the Figure 8 bisection sweep,
// the Figure 9 clock-scaling sweep, the Figure 10 context-switch latency
// sweep, the Figure 1/2 region classifications derived from those sweeps,
// and Tables 1 and 2. Each generator that simulates runs on the
// *core.Runner its caller passes, and each returns the underlying data so
// tests and tools can assert on it. cmd/paperbench holds the table of
// artifacts that selects and orders them.
package figures
