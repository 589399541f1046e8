// Package fixture observes the host clock. In a sim scope closedscope
// reports the time import itself, so no use of it needs a check of its
// own; host packages such as internal/core time their runs with it.
package fixture

import "time" //want closedscope

const tick = 5 * time.Millisecond

func elapsed() time.Duration {
	t0 := time.Now()
	time.Sleep(tick)
	d := time.Since(t0)
	_ = time.After(tick)
	return d
}
