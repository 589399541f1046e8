// Package sim provides a deterministic discrete-event simulation engine
// with cooperatively scheduled simulated threads.
//
// Simulated time is measured in integer picoseconds (Time). Events fire in
// nondecreasing time order; ties are broken by scheduling order, so a
// simulation is fully deterministic given deterministic inputs. The queue
// is a timing wheel over the next few microseconds in front of a binary
// heap: an event that is not earlier than the last one in its wheel slot
// joins that slot's FIFO list in O(1), every other event goes into the
// heap, and dispatch takes the earlier of the two stores' first events
// under (time, scheduling order), so the order is that of one heap.
// Exactly one simulated thread runs at any moment (each thread body is a
// coroutine that the engine resumes and that hands control back at every
// pause), so simulation state never needs locking.
//
// Thread.Spin is a sleep whose wakes run a step function on the engine's
// side instead of resuming the body: the step returns the next sleep, or
// asks for the body to resume inside the same dispatch. Each wake a step
// absorbs is accounted exactly like the wake of a Sleep (the same event
// at the same point of its dispatch, one span-observer call with the same
// arguments, the wait reason cleared), so a step that
// does what the body would have done between its sleeps changes nothing
// but the host cost: no coroutine switch per wake.
package sim
