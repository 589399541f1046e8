package obs

import "repro/internal/sim"

// Span is one thread-state interval: the thread named Thread was paused
// from Start to End. Blocked distinguishes why it was paused: a false
// Blocked means the thread itself had already armed its wake before
// pausing (a Sleep — the thread is consuming charged execution time),
// while true means it was parked waiting for an external wake (a cache
// miss fill, a message arrival, a lock release), with Reason/Arg carrying
// the wait label set via sim.Thread.SetWaitReason.
type Span struct {
	Thread  string
	Start   sim.Time
	End     sim.Time
	Blocked bool
	Reason  string
	Arg     int64
}
