// Package apps defines the contract between applications and the
// experiment framework: the five communication mechanisms of the paper
// and the App interface every application implements in all five styles.
//
// It also holds the message-passing transport the irregular codes share
// (transport.go). Ghosts plans a ghost exchange once from the items each
// consumer reads and an owner map; each round, every producer ships each
// consumer its items, in chunks of fine-grained messages or, under Bulk,
// one gather-charged DMA per shipment, and every consumer waits for its
// expected count. Flush plans the reverse: each round, every processor
// sends the partial sums it holds for other owners' items, one message
// per item or one DMA per owner, then waits for its own. Under MP-poll a
// sender polls after every fourth send (ComputePoll is the compute-loop
// cadence: every eighth work item). The apps keep their message encoding
// and memory layout as callbacks; the transport never knows which app
// calls it. NewBarrier returns the psync barrier matching a mechanism.
package apps
