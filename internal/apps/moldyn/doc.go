// Package moldyn implements the paper's MOLDYN molecular dynamics
// application in all five styles: molecules RCB-partitioned into groups,
// interaction lists rebuilt every 20 iterations from twice the cutoff
// radius, and per-owner position/velocity updates. Cross-group forces go
// through per-(writer,molecule) delta slots in shared memory — the
// paper's exclusive remote force-delta locations, each with a colocated
// lock whose acquisition rides the write-ownership request ("the locks
// performed much better here, because of lower contention") — through
// handler-serialized messages in the fine-grained versions, and through
// per-destination aggregates for bulk transfer; position ghosts (two
// molecules per fine-grained message) and force flushes go through the
// shared apps.Ghosts and apps.Flush transport, replanned at every
// interaction-list rebuild. Computation dominates, as in the paper.
package moldyn
