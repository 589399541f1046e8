// Package sim provides a deterministic discrete-event simulation engine
// with cooperatively scheduled simulated threads.
//
// Simulated time is measured in integer picoseconds (Time). Events fire in
// nondecreasing time order; ties are broken by scheduling order, so a
// simulation is fully deterministic given deterministic inputs. Exactly one
// simulated thread runs at any moment (each thread body is a coroutine
// that the engine resumes and that hands control back at every pause), so
// simulation state never needs locking.
package sim
