package obs

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/stats"
)

// EdgeKind classifies causal edges. The kinds are declared in the
// alphabetical order of their names, so ranking edges by kind ranks
// them by name.
type EdgeKind uint8

// Causal edge kinds.
const (
	EdgeBarrier EdgeKind = iota // barrier arrival observed at its release
	EdgeMiss                    // miss observed at its fill
	EdgeMsg                     // message send observed at its receive
	EdgeTxn                     // directory transaction observed at its grant
)

// String names the kind as the run log and the timeline's critpath
// lane print it.
func (k EdgeKind) String() string {
	switch k {
	case EdgeBarrier:
		return "barrier"
	case EdgeMiss:
		return "miss"
	case EdgeMsg:
		return "msg"
	case EdgeTxn:
		return "txn"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// CritEdge is one causal edge between thread spans: a message send
// observed at its receive, a miss observed at its fill, a directory
// transaction observed at its grant, a barrier arrival observed at its
// release. Lat and BW carry the recorder's decomposition of the edge
// interval into network latency and bandwidth/occupancy; the remainder
// is protocol or synchronization time. It holds no pointer, so neither
// the edge ring nor the copies Edges returns give the garbage collector
// anything to scan.
type CritEdge struct {
	Kind     EdgeKind
	Src, Dst int      // cause and effect nodes
	Start    sim.Time // cause timestamp (send, txn begin, barrier arrival)
	End      sim.Time // effect timestamp (receive, fill, grant, release)
	Lat      sim.Time // uncongested network-latency part of [Start, End)
	BW       sim.Time // serialization/occupancy part of [Start, End)
}

// CritRecorder accumulates the dependency information the critical-path
// pass needs: per-node reclassification totals (how much of each node's
// mem-wait and sync bucket time was really network latency or network
// bandwidth) and a bounded ring of causal edges.
type CritRecorder struct {
	// latMem/bwMem: picoseconds reclassified out of BucketMemWait into
	// network latency / bandwidth for each node.
	latMem, bwMem []sim.Time
	// latSync/bwSync: same, reclassified out of BucketSync (awaited
	// message transit time).
	latSync, bwSync []sim.Time
	ring            *Ring[CritEdge]
}

// DefaultCritEdgeCap bounds the edge ring. Edges are a strict subset of
// protocol events, so this is sized like a trace buffer.
const DefaultCritEdgeCap = 4096

// NewCritRecorder sizes a recorder for nodes processors with edgeCap
// edges retained. A non-positive edgeCap panics, as NewRing does.
func NewCritRecorder(nodes, edgeCap int) *CritRecorder {
	return &CritRecorder{
		latMem:  make([]sim.Time, nodes),
		bwMem:   make([]sim.Time, nodes),
		latSync: make([]sim.Time, nodes),
		bwSync:  make([]sim.Time, nodes),
		ring:    NewRing[CritEdge](edgeCap),
	}
}

// MissWait reclassifies lat+bw picoseconds of node's mem-wait bucket as
// network latency and bandwidth. Called when a miss fill wakes a waiter
// whose wait was charged to BucketMemWait.
func (r *CritRecorder) MissWait(node int, lat, bw sim.Time) {
	r.latMem[node] += lat
	r.bwMem[node] += bw
}

// MsgWait reclassifies lat+bw picoseconds of node's sync bucket as
// network latency and bandwidth. Called when an awaited message arrival
// wakes a receiver whose wait was charged to BucketSync.
func (r *CritRecorder) MsgWait(node int, lat, bw sim.Time) {
	r.latSync[node] += lat
	r.bwSync[node] += bw
}

// Edge records one causal edge.
func (r *CritRecorder) Edge(e CritEdge) { r.ring.Add(e) }

// EdgesTotal reports how many edges were recorded over the run,
// including ones the ring evicted.
func (r *CritRecorder) EdgesTotal() int64 { return r.ring.Total() }

// Edges returns the retained edges stable-sorted by (End, Start), the
// order the prediction layer reads them in.
func (r *CritRecorder) Edges() []CritEdge {
	all := r.ring.Items()
	slices.SortStableFunc(all, func(a, b CritEdge) int {
		if c := cmp.Compare(a.End, b.End); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
	return all
}

// CritStats is the post-run critical-path attribution for one run: the
// last-finishing processor's timeline — whose length is the run's
// makespan — split into five categories. They split the paper's four
// Figure 4 buckets one level finer: the time a processor spends stalled
// (mem-wait) or synchronizing (sync) is decomposed into the part that is
// pure network latency (head-of-packet flight time at zero load), the
// part that is network bandwidth / occupancy (serialization and
// queueing), and the residue that really is memory-system or
// synchronization delay. The five category fields sum to TotalCycles
// exactly; all fields are exported so the summary survives JSON
// round-trips (runlog, disk cache).
type CritStats struct {
	Node         int   // the critical (last-finishing) processor
	TotalCycles  int64 // critical-path length = sum of the five categories
	Compute      int64 // instruction execution + message overhead
	MemStall     int64 // miss stall net of network latency/bandwidth
	NetLatency   int64 // uncongested flight time of awaited packets
	NetBandwidth int64 // serialization/queueing of awaited packets
	Sync         int64 // barriers, locks, waiting for senders
	EdgesTotal   int64 // causal edges recorded (including evicted)
	TopEdges     []CritEdgeSummary
}

// CritEdgeSummary is one of the longest recorded causal edges, with
// timestamps converted to cycles for the runlog.
type CritEdgeSummary struct {
	Kind        string
	Src, Dst    int
	StartCycles int64
	EndCycles   int64
	LatCycles   int64
	BWCycles    int64
}

// Summarize runs the critical-path pass: node is the last-finishing
// processor (the critical path in a barrier-terminated program is its
// timeline) and bd its time breakdown. Category picosecond totals are
// exact partitions of the breakdown — compute = compute + msg-overhead,
// net latency/bandwidth are the recorder's reclassifications, and
// mem-stall/sync keep the remainder of their buckets — converted to
// cycles per category so the five cycle counts sum to TotalCycles by
// construction. topN bounds the reported longest edges: ranked longest
// first, then by earlier start, lower source, destination and kind, with
// full ties in recording order.
func (r *CritRecorder) Summarize(clk sim.Clock, node int, bd stats.Breakdown, topN int) *CritStats {
	compute := bd.T[stats.BucketCompute] + bd.T[stats.BucketMsgOverhead]
	memStall := bd.T[stats.BucketMemWait] - r.latMem[node] - r.bwMem[node]
	sync := bd.T[stats.BucketSync] - r.latSync[node] - r.bwSync[node]
	lat := r.latMem[node] + r.latSync[node]
	bw := r.bwMem[node] + r.bwSync[node]
	s := &CritStats{
		Node:         node,
		Compute:      clk.ToCycles(compute),
		MemStall:     clk.ToCycles(memStall),
		NetLatency:   clk.ToCycles(lat),
		NetBandwidth: clk.ToCycles(bw),
		Sync:         clk.ToCycles(sync),
		EdgesTotal:   r.EdgesTotal(),
	}
	s.TotalCycles = s.Compute + s.MemStall + s.NetLatency + s.NetBandwidth + s.Sync

	for _, e := range r.topEdges(topN) {
		s.TopEdges = append(s.TopEdges, CritEdgeSummary{
			Kind:        e.Kind.String(),
			Src:         e.Src,
			Dst:         e.Dst,
			StartCycles: clk.ToCycles(e.Start),
			EndCycles:   clk.ToCycles(e.End),
			LatCycles:   clk.ToCycles(e.Lat),
			BWCycles:    clk.ToCycles(e.BW),
		})
	}
	return s
}

// topEdges returns the n highest-ranked retained edges in one pass over
// the ring, oldest first. An edge displaces a kept one only if it ranks
// strictly higher, so ties keep recording order.
func (r *CritRecorder) topEdges(n int) []CritEdge {
	var top []CritEdge
	for _, part := range r.ring.parts() {
		for i := range part {
			e := &part[i]
			at := len(top)
			for at > 0 && ranksAbove(e, &top[at-1]) {
				at--
			}
			if at >= n {
				continue
			}
			if len(top) < n {
				top = append(top, CritEdge{})
			}
			copy(top[at+1:], top[at:])
			top[at] = *e
		}
	}
	return top
}

// ranksAbove reports whether edge a ranks strictly above b in the
// top-edge summary: longer first, then earlier start, then lower source,
// destination and kind.
func ranksAbove(a, b *CritEdge) bool {
	if da, db := a.End-a.Start, b.End-b.Start; da != db {
		return da > db
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.Kind < b.Kind
}
