// Package meshfix stands in for internal/mesh: a sim package that
// imports the engine and a pure standard package, which is fine, and a
// host helper, the host environment and math/rand, which are not; and
// that formats into strings, which is fine, but also prints to stdout
// and reads stdin, which is not.
package meshfix

import (
	"fmt"
	"math/rand" //want closedscope
	"os"        //want closedscope

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

// Verbose reads the host environment.
func Verbose() bool { return os.Getenv("MESH_VERBOSE") != "" }

// Jitter draws from a seeded generator, but only internal/workload may
// import math/rand.
func Jitter(seed int64) simfix.Time { return simfix.Time(rand.New(rand.NewSource(seed)).Intn(8)) }

// Dump prints to the process's stdout.
func Dump(t simfix.Time) { fmt.Println(t) } //want closedscope

// Hops reads the process's stdin.
func Hops() (n int) {
	fmt.Scan(&n) //want closedscope
	return n
}

// scanf is fmt's stdin reader as a value, never called.
var scanf = fmt.Scanf //want closedscope
