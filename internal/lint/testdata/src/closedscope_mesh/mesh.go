// Package meshfix stands in for internal/mesh: a sim package that
// imports the engine and the standard library, which is fine, and a host
// helper, which is not.
package meshfix

import (
	"fmt"

	"repro/internal/hostfix" //want closedscope
	simfix "repro/internal/sim/fixture"
)

// FaultInjector delays packets.
type FaultInjector interface {
	PacketDelay(src, dst int) simfix.Time
}

// noFaults is a sim type implementing a sim interface.
type noFaults struct{}

func (noFaults) PacketDelay(src, dst int) simfix.Time { return 0 }

// Latency calls the host helper.
func Latency(hops int) string {
	return fmt.Sprint(hostfix.Scale(simfix.Time(hops)))
}
