// Package am simulates Alewife's message-passing mechanisms: user-level
// active messages received by interrupts or by polling (the Remote Queues
// abstraction), and bulk transfer via DMA with (address,length) descriptor
// overhead and double-word alignment padding.
//
// Cost structure follows the paper: a null active message costs ~102
// cycles end to end (construct + launch + interrupt entry + dispatch);
// polling replaces the interrupt entry with a much cheaper per-message
// dispatch, cutting receive overhead by roughly a third; DMA eliminates
// per-word processor cost but the applications pay explicit gather/scatter
// copying (~60 cycles per 16-byte line, charged via GatherScatterCycles).
//
// These costs, the wire sizes of arguments, values and DMA descriptors,
// and the NI queue limits are unexported constants in am.go. No
// experiment varies them, so they are not part of machine.Config, the
// memo key every run is hashed by. Every message carries the network's
// mesh.HeaderBytes header.
//
// Host memory. A message lives in a record pooled per System, from
// injection until its handler returns: the record keeps its payload
// buffers' capacity, carries its own mesh packet, and binds its arrival
// and loopback steps once, when it is built. Handlers receive a per-node
// Ctx, and the NI input queue dequeues in place, keeping its capacity. So
// a warm message allocates nothing, and the args, vals and Ctx a handler
// receives are valid only until it returns (see Handler).
package am
