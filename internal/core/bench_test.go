package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
)

// benchClockSweep runs the Figure 9 sweep on a fresh runner of the given
// width (fresh so memoization cannot cross iterations and the benchmark
// measures real simulation work).
func benchClockSweep(b *testing.B, workers int) {
	b.ReportAllocs()
	mechs := []apps.Mechanism{apps.SM, apps.SMPrefetch, apps.MPPoll}
	for i := 0; i < b.N; i++ {
		r := NewRunner(workers)
		if _, err := r.Sweep(EM3D, ScaleTiny, mechs, ClockAxis(machine.DefaultConfig(), DefaultClockMHzs)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClockSweepSerial is the seed execution model: one run at a time.
func BenchmarkClockSweepSerial(b *testing.B) { benchClockSweep(b, 1) }

// BenchmarkClockSweepParallel fans the 12 runs out over GOMAXPROCS workers.
func BenchmarkClockSweepParallel(b *testing.B) { benchClockSweep(b, 0) }

// BenchmarkContextSwitchSweepMemoized measures the Figure 10 sweep,
// whose message-passing reference runs execute once each rather than
// once per latency: 3 of them instead of 15.
func BenchmarkContextSwitchSweepMemoized(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRunner(0)
		if _, err := r.Sweep(EM3D, ScaleTiny, apps.Mechanisms,
			IdealLatencyAxis(machine.DefaultConfig(), DefaultIdealLatencies)); err != nil {
			b.Fatal(err)
		}
	}
}
