// Package mesh simulates the Alewife EMRC-style 2-D mesh interconnect:
// dimension-order (X then Y) cut-through routing, per-link bandwidth and
// occupancy, per-hop router latency, endpoint back-pressure, and the
// paper's bisection-bandwidth emulation via I/O cross-traffic injected
// across both edges of the mesh (Figure 6).
//
// Geometry. Config holds the interconnect's geometry and uncongested
// timing as pure methods: Nodes, XY, ID, Hops, AvgHops, Latency and
// BisectionLinks. Network embeds its Config, so the same methods read
// off a live network, and callers that only need geometry never build
// one. Send routes a packet as two fixed-direction legs, X then Y (or Y
// then X under AdaptiveXY), and Config.link is the one link-index
// function.
//
// Timing model. A packet's head advances one router per HopLatency; its
// body follows in a pipeline, so an uncongested delivery takes
// Config.Latency(hops, Size):
//
//	(hops+1)*HopLatency + Size*PsPerByte
//
// matching Alewife's ~15 processor cycles for a 24-byte packet at 20 MHz.
// Each directed link is a server that is occupied for Size*PsPerByte per
// packet; when a link is busy the head waits, which is what produces the
// nonlinear congestion of the paper's "Congestion Dominated" region.
// Link reservations are made in send order (a standard fast cut-through
// approximation: one delivery event per packet rather than one per hop).
//
// Delivery. A packet's delivery event is bound once, on its first Send,
// and reused by back-pressure retries and by later sends of the same
// packet, so senders that keep their packets (coherence records, active
// message records) schedule deliveries without allocating. Cross-traffic
// packets reserve their links and draw their fault delay in send order
// like any other, but leave the mesh at its edge and schedule no
// delivery, so each generator resends one packet.
package mesh
