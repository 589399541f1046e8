// Package psync provides the synchronization library the applications
// are written against: shared-memory spin barriers and spin locks (whose
// traffic flows through the coherence protocol), and message-passing tree
// barriers built on active messages. Every barrier meets the Barrier
// interface; the paper's codes use the one matching their communication
// mechanism (apps.NewBarrier picks it).
package psync
