// Package hostfix stands in for a host package, such as internal/core,
// that imports only internal/sim. Its types satisfy the sim interfaces
// structurally, including meshfix.FaultInjector from a package it does
// not import.
package hostfix

import simfix "repro/internal/sim/fixture"

// WallDelay would hand the host clock to the mesh as a fault injector.
type WallDelay struct{} //want closedscope

func (*WallDelay) PacketDelay(src, dst int) simfix.Time { return 0 }

// HostClock implements an interface of the package it imports.
type HostClock struct{} //want closedscope

func (HostClock) Now() simfix.Time { return 0 }

// Failure implements only error, which no sim scope declares.
type Failure struct{}

func (Failure) Error() string { return "failure" }

// Token implements only the empty simfix.Any.
type Token struct{}

// Engine is an alias: it declares no host type.
type Engine = simfix.Engine

// Timed extends a sim interface; only a concrete type implementing it
// can run code.
type Timed interface {
	simfix.Clock
	Label() string
}

// Scale is a host helper.
func Scale(t simfix.Time) simfix.Time { return 2 * t }
