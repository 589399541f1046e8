// Package simfix stands in for internal/sim: the engine's types, an
// interface that a host type implements, and an empty interface that
// every type implements.
package simfix

import "math/bits"

// Time is simulated time.
type Time int64

// Clock reads simulated time.
type Clock interface {
	Now() Time
}

// Any is empty: implementing it runs nothing.
type Any interface{}

// Engine is a sim type implementing a sim interface.
type Engine struct{ now Time }

func (e *Engine) Now() Time { return e.now }

// Log2 keeps the standard-library import in use.
func Log2(t Time) int { return bits.Len64(uint64(t)) }
