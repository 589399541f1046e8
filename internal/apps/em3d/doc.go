// Package em3d implements the paper's EM3D benchmark (electromagnetic
// wave propagation on an irregular bipartite graph) in all five
// communication styles. The message-passing versions pre-communicate
// "ghost node" values five double-words at a time before each phase, the
// bulk version gathers per-destination buffers for DMA (both through the
// shared apps.Ghosts exchange, one plan per phase), and the
// shared-memory versions read neighbor values directly, optionally with
// the paper's prefetch insertion (write-prefetch the node being updated,
// read-prefetch edge values two edge-computations ahead).
package em3d
