// Package mem simulates the Alewife memory system: per-node direct-mapped
// caches, a LimitLESS-style directory cache-coherence protocol under
// sequential consistency, software prefetch with a prefetch buffer, and
// the authoritative backing store for shared data.
//
// Timing follows the paper's Figure 3 cost table: an 11-cycle local miss,
// remote clean/dirty misses of roughly 42/63 processor cycles plus 1.6
// cycles per network hop (round trip), and a ~425-cycle software handler
// when a line's sharer count overflows the directory's five hardware
// pointers. Controller and DRAM costs are expressed in processor cycles
// (the CMMU is clocked with the processor); network transit is wall-clock
// time, which is what makes the paper's clock-scaling experiment work.
//
// Params holds what some experiment or test varies: the miss, request,
// controller, DRAM and fill costs that the Table 1 emulation sets, the
// line, cache and prefetch-buffer sizes, the directory's hardware
// pointers, and the consistency and protocol variants. The costs no
// experiment varies (a cache hit, a prefetch-buffer move, the LimitLESS
// trap and its per-sharer term) and the RC write-buffer depth are
// unexported constants in params.go. A data packet carries LineWords×8
// bytes behind the network's mesh.HeaderBytes header.
//
// Host memory grows with what a run touches, not with the modelled
// machine. Cache frames live in 64-line pages, each allocated on the
// first fill into it; a frame in a missing page reads as invalid.
// Protocol state in flight lives in pooled records: a transaction (txn)
// per miss, a leg per sharer of an invalidation or update round, and a
// writeBack per dirty eviction. Each protocol step is a method of its
// record, bound once when the record is built, and each record carries
// its own packet, whose delivery event the network binds on its first
// send. What a transaction does when it completes is an ordered list of
// typed actions: an SC store carries its address and value, a buffered
// RC store its address, and only atomics and deferred protocol steps
// carry a function. So a steady-state miss allocates nothing once the
// records exist. Directory entries are created on first touch.
package mem
