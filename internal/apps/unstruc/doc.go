// Package unstruc implements the paper's UNSTRUC benchmark (fluid flow
// over a 3-D unstructured mesh, 75 FLOPs per edge) in all five styles.
// All versions privatize edge accumulations and flush per touched node.
// The shared-memory flushes are protected by per-node spin locks (the
// locking overhead the paper calls out); the message-passing flushes need
// no locks because non-interruptible handlers provide mutual exclusion.
// The message-passing versions ship node-state ghosts (two nodes per
// fine-grained message) and flush through the shared apps.Ghosts and
// apps.Flush transport.
package unstruc
