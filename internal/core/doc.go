// Package core is the experiment framework reproducing the paper's
// methodology: it binds the four applications (in five communication
// styles each) to simulated machines and runs the parametric studies —
// communication volume, bisection-bandwidth emulation via cross-traffic,
// network-latency emulation via clock scaling, and the context-switch
// (ideal network) emulation — producing the data behind every figure and
// table in the evaluation.
//
// Each parametric study is one Axis, built by one constructor per
// methodology (BisectionAxis, ClockAxis, IdealLatencyAxis,
// NodeScalingAxis, MsgLenAxis) over a grid such as the paper's
// DefaultCrossRates. Runner.Sweep simulates an axis on the memoized
// worker pool; Runner.PredictedSweep solves the first three from one
// instrumented run per mechanism (internal/predict) and validates the
// solve with the very runs Sweep makes. Runner.NoiseSeedSweep and
// Runner.DelayPropagation run the Figure S2 noise studies.
package core
