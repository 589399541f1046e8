package mesh

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Class identifies what a packet carries, for volume accounting and for
// choosing the endpoint drain path (hardware CMMU vs processor handler).
type Class int

const (
	// ClassCohReq is a coherence read/write/upgrade request.
	ClassCohReq Class = iota
	// ClassCohInval is an invalidation or an invalidation acknowledgment.
	ClassCohInval
	// ClassCohAck is a protocol acknowledgment that is not part of
	// invalidation traffic (e.g. ownership grants without data).
	ClassCohAck
	// ClassCohData is a cache-line carrying coherence message.
	ClassCohData
	// ClassAM is a fine-grained active message.
	ClassAM
	// ClassBulk is a DMA bulk-transfer message.
	ClassBulk
	// ClassXTraffic is I/O cross-traffic used for bisection emulation;
	// it is accounted separately from application volume.
	ClassXTraffic
)

func (c Class) String() string {
	switch c {
	case ClassCohReq:
		return "coh-req"
	case ClassCohInval:
		return "coh-inval"
	case ClassCohAck:
		return "coh-ack"
	case ClassCohData:
		return "coh-data"
	case ClassAM:
		return "am"
	case ClassBulk:
		return "bulk"
	case ClassXTraffic:
		return "x-traffic"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// HeaderBytes is the network header of every message: coherence
// packets, active messages and cross-traffic alike.
const HeaderBytes = 8

// Packet is one network message. HdrBytes+PayloadBytes is the wire size.
type Packet struct {
	Src, Dst     int
	Class        Class
	HdrBytes     int
	PayloadBytes int

	// Deliver is invoked when the endpoint accepts the packet. It runs in
	// engine context and must not block. Nil packets are absorbed.
	Deliver func(now sim.Time, p *Packet)

	// net and arrival are the packet's delivery event, bound on its first
	// Send and reused by back-pressure retries and by later sends of the
	// same packet, so a reused packet schedules its delivery without
	// allocating.
	net     *Network
	arrival func()
}

// Size returns the wire size in bytes.
func (p *Packet) Size() int { return p.HdrBytes + p.PayloadBytes }

// Endpoint receives packets at a node. TryDeliver is offered a packet when
// its tail has fully arrived; returning ok=false applies back-pressure and
// the network retries at retryAt (which must be in the future).
type Endpoint interface {
	TryDeliver(now sim.Time, p *Packet) (ok bool, retryAt sim.Time)
}

// AcceptAll is an Endpoint that consumes every packet immediately.
type AcceptAll struct{}

// TryDeliver implements Endpoint.
func (AcceptAll) TryDeliver(now sim.Time, p *Packet) (bool, sim.Time) {
	if p.Deliver != nil {
		p.Deliver(now, p)
	}
	return true, 0
}

// Config parameterizes the mesh.
type Config struct {
	Width, Height int      // router grid; node id = y*Width + x
	HopLatency    sim.Time // per-router head latency
	PsPerByte     sim.Time // link serialization: time per byte
	// Torus adds wraparound links in both dimensions and routes each
	// dimension the short way around, doubling bisection bandwidth and
	// halving worst-case distance (the Cray T3D/T3E topologies of
	// Table 1). Cross-traffic emulation is mesh-only.
	Torus bool
	// AdaptiveXY enables minimal adaptive routing: each packet picks XY
	// or YX dimension order by whichever first link is free sooner
	// (deterministic given simulation state). Alewife's EMRC is
	// dimension-ordered; this exists as a network-design ablation.
	AdaptiveXY bool
}

// Nodes returns the number of routers (compute endpoints).
func (c Config) Nodes() int { return c.Width * c.Height }

// XY returns the mesh coordinates of node id.
func (c Config) XY(id int) (x, y int) { return id % c.Width, id / c.Width }

// ID returns the node id at coordinates (x, y).
func (c Config) ID(x, y int) int { return y*c.Width + x }

// Hops returns the dimension-order hop count between two nodes (shortest
// way around each ring for a torus).
func (c Config) Hops(src, dst int) int {
	sx, sy := c.XY(src)
	dx, dy := c.XY(dst)
	return c.toward(dirEast, sx, dx).hops + c.toward(dirNorth, sy, dy).hops
}

// AvgHops returns the average dimension-order distance between distinct
// compute nodes: the distance of the paper's one-way latency convention.
// A one-node machine has no such pair, and its average is 0.
func (c Config) AvgHops() float64 {
	total, pairs := 0, 0
	for s := 0; s < c.Nodes(); s++ {
		for d := 0; d < c.Nodes(); d++ {
			if s != d {
				total += c.Hops(s, d)
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0 // one node: no message ever crosses the mesh
	}
	//lint:allow simlint/intmath topology statistic for calibration; never feeds event times
	return float64(total) / float64(pairs)
}

// Latency returns the uncongested delivery time of a packet of the given
// size over hops hops: the head passes hops routers plus the ejection
// stage, and the tail follows by the serialization time.
func (c Config) Latency(hops, bytes int) sim.Time {
	return sim.Time(hops+1)*c.HopLatency + sim.Time(bytes)*c.PsPerByte
}

// BisectionLinks counts directed links crossing the X-dimension middle
// cut: 2 per row for a mesh, 4 per row for a torus (the cut severs the
// ring twice).
func (c Config) BisectionLinks() int {
	if c.Torus {
		return 4 * c.Height
	}
	return 2 * c.Height
}

// BisectionBytesPerCycle returns the native bisection bandwidth in bytes
// per processor cycle for the given clock.
func (c Config) BisectionBytesPerCycle(clk sim.Clock) float64 {
	//lint:allow simlint/intmath reporting figure (bandwidth label); never feeds event times
	return float64(c.BisectionLinks()) * float64(clk.PsPerCycle()) / float64(c.PsPerByte)
}

// Directions for link indexing. Each dimension's backward direction
// follows its forward one.
const (
	dirEast = iota
	dirWest
	dirNorth // +y
	dirSouth // -y
)

// dirNames renders link directions for diagnostics and link labels.
var dirNames = [4]string{"east", "west", "north", "south"}

// dirStep is the coordinate move of one hop in each direction.
var dirStep = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// leg is one dimension's share of a route: hops links in direction d.
type leg struct{ d, hops int }

// toward returns the leg from coordinate a to b in the dimension whose
// forward direction is fwd (dirEast or dirNorth). A torus goes the short
// way around, forward on a tie.
func (c Config) toward(fwd, a, b int) leg {
	k := c.Width
	if fwd == dirNorth {
		k = c.Height
	}
	ahead := b - a
	if c.Torus {
		if ahead < 0 {
			ahead += k
		}
		if ahead > k-ahead {
			return leg{fwd + 1, k - ahead}
		}
	} else if ahead < 0 {
		return leg{fwd + 1, -ahead}
	}
	return leg{fwd, ahead}
}

// wrap brings a coordinate at most one ring length outside [0, k) back
// into it.
func wrap(v, k int) int {
	switch {
	case v < 0:
		return v + k
	case v >= k:
		return v - k
	}
	return v
}

// link returns the index of the directed link leaving router (x, y) in
// direction d. A link is indexed by its west or south router: X links
// y*(Width-1)+x on a mesh, y*Width+x on a torus, and Y links y*Width+x,
// where the torus's wrap links belong to the last column and top row.
func (c Config) link(d, x, y int) int {
	switch d {
	case dirWest:
		if x--; x < 0 {
			x += c.Width
		}
	case dirSouth:
		if y--; y < 0 {
			y += c.Height
		}
	}
	row := c.Width
	if d <= dirWest && !c.Torus {
		row--
	}
	return y*row + x
}

// linkEnds returns the node ids of the routers joined by directed link
// (d, idx), west or south router first: the inverse of link. Outage
// windows target nodes; a link is out when either endpoint is targeted.
func (c Config) linkEnds(d, idx int) (a, b int) {
	if d <= dirWest {
		row := c.Width
		if !c.Torus {
			row--
		}
		x, y := idx%row, idx/row
		return c.ID(x, y), c.ID((x+1)%c.Width, y)
	}
	x, y := idx%c.Width, idx/c.Width
	return c.ID(x, y), c.ID(x, (y+1)%c.Height)
}

// Network is a simulated 2-D mesh. It embeds its Config, so the geometry
// (Nodes, XY, ID, Hops, Latency) reads straight off the network.
type Network struct {
	Config
	eng *sim.Engine

	// busyUntil[d][i] is the reservation horizon of directed link i in
	// direction d, indexed by Config.link.
	busyUntil [4][]sim.Time
	// linkBytes accumulates bytes serialized per directed link, for
	// utilization and hot-spot reporting.
	linkBytes [4][]int64

	endpoints []Endpoint

	// vol is application traffic volume by kind.
	vol stats.Volume
	// Cross-traffic accounting.
	xPackets, xBytes int64

	packetsSent int64
	retries     int64

	stopX bool // stops cross-traffic generators

	// fault, when non-nil, perturbs link reservations and deliveries
	// (seeded fault and noise injection; see internal/fault).
	fault FaultInjector
}

// FaultInjector perturbs network behaviour deterministically. It is
// implemented by *fault.Injector; the interface keeps the mesh decoupled
// from the fault package. Faults and noise delay traffic but never drop
// it.
type FaultInjector interface {
	// PacketDelay returns the extra delivery delay for the next packet,
	// from src to dst. Called exactly once per packet, in send order.
	PacketDelay(src, dst int) sim.Time
	// LinkBlockedUntil reports when the link joining nodes a and b
	// becomes usable for a reservation desired at time t (0 = no outage).
	LinkBlockedUntil(a, b int, t sim.Time) sim.Time
}

// SetFaultInjector attaches a fault injector (nil disables injection).
// With no injector attached the timing paths are byte-identical to a
// fault-free build.
func (n *Network) SetFaultInjector(fi FaultInjector) { n.fault = fi }

// linkName renders the canonical label of directed link (d, idx). Zero
// padding keeps lexicographic order equal to numeric link order.
func linkName(d, idx int) string { return fmt.Sprintf("%s%03d", dirNames[d], idx) }

// New creates a mesh network. All endpoints default to AcceptAll.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Width < 1 || cfg.Height < 1 {
		panic(fmt.Sprintf("mesh: bad dimensions %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.PsPerByte <= 0 {
		panic("mesh: PsPerByte must be positive")
	}
	n := &Network{Config: cfg, eng: eng}
	nx, ny := (cfg.Width-1)*cfg.Height, cfg.Width*(cfg.Height-1)
	if cfg.Torus {
		nx, ny = cfg.Nodes(), cfg.Nodes()
	}
	for d, links := range [4]int{nx, nx, ny, ny} {
		n.busyUntil[d] = make([]sim.Time, links)
		n.linkBytes[d] = make([]int64, links)
	}
	n.endpoints = make([]Endpoint, cfg.Nodes())
	for i := range n.endpoints {
		n.endpoints[i] = AcceptAll{}
	}
	return n
}

// Attach installs ep as the endpoint of node id.
func (n *Network) Attach(id int, ep Endpoint) { n.endpoints[id] = ep }

// Send injects p into the network at the current simulated time. The
// packet is routed as two fixed-direction legs, X then Y (or Y then X
// under the adaptive choice), reserving each link in turn; its Deliver
// callback (if any) runs when the destination endpoint accepts it. A
// cross-traffic packet reserves its links and draws its fault delay like
// any other, but leaves at the mesh edge: no delivery is scheduled, so
// its sender may resend it at once. Any other packet may be sent again
// once it has been delivered. The returned time is when the packet's
// head actually enters its first link — under congestion this lags Now,
// which senders use to model finite output-queue depth.
func (n *Network) Send(p *Packet) sim.Time {
	now := n.eng.Now()
	n.packetsSent++
	n.account(p)

	size := sim.Time(p.Size()) * n.PsPerByte
	x, y := n.XY(p.Src)
	tx, ty := n.XY(p.Dst)
	legs := [2]leg{n.toward(dirEast, x, tx), n.toward(dirNorth, y, ty)}
	if n.AdaptiveXY && legs[0].hops > 0 && legs[1].hops > 0 &&
		n.busyUntil[legs[1].d][n.link(legs[1].d, x, y)] < n.busyUntil[legs[0].d][n.link(legs[0].d, x, y)] {
		legs[0], legs[1] = legs[1], legs[0]
	}
	head, depart, first := now, now, true
	for _, l := range legs {
		step := dirStep[l.d]
		for i := 0; i < l.hops; i++ {
			head = n.reserve(l.d, n.link(l.d, x, y), head, size)
			if first {
				depart, first = head-n.HopLatency, false
			}
			x, y = wrap(x+step[0], n.Width), wrap(y+step[1], n.Height)
		}
	}
	// Head passes the routers plus the ejection stage; the tail follows
	// by the serialization time.
	tail := head + n.HopLatency + size
	if n.fault != nil {
		tail += n.fault.PacketDelay(p.Src, p.Dst)
	}
	if p.Class == ClassXTraffic {
		// Cross-traffic exits the mesh at the edge I/O nodes without
		// disturbing the compute node's network interface.
		return depart
	}
	if p.net != n {
		p.net, p.arrival = n, p.arrive
	}
	n.eng.At(tail, p.arrival)
	return depart
}

// arrive offers p to its destination endpoint: the delivery event bound
// by Send.
func (p *Packet) arrive() { p.net.deliver(p) }

// reserve occupies directed link (d, idx) from the head's arrival and
// returns when the head reaches the next router.
func (n *Network) reserve(d, idx int, head, size sim.Time) sim.Time {
	start := head
	if bu := n.busyUntil[d][idx]; bu > start {
		start = bu
	}
	if n.fault != nil {
		a, b := n.linkEnds(d, idx)
		if u := n.fault.LinkBlockedUntil(a, b, start); u > start {
			start = u
		}
	}
	n.busyUntil[d][idx] = start + size
	n.linkBytes[d][idx] += int64(size / n.PsPerByte)
	return start + n.HopLatency
}

func (n *Network) deliver(p *Packet) {
	ep := n.endpoints[p.Dst]
	ok, retryAt := ep.TryDeliver(n.eng.Now(), p)
	if ok {
		return
	}
	n.retries++
	if retryAt <= n.eng.Now() {
		retryAt = n.eng.Now() + n.HopLatency
	}
	n.eng.At(retryAt, p.arrival)
}

func (n *Network) account(p *Packet) {
	if p.Class == ClassXTraffic {
		n.xPackets++
		n.xBytes += int64(p.Size())
		return
	}
	switch p.Class {
	case ClassCohReq, ClassCohAck:
		n.vol.Add(stats.VolRequests, int64(p.Size()))
	case ClassCohInval:
		n.vol.Add(stats.VolInvalidates, int64(p.Size()))
	case ClassCohData, ClassAM, ClassBulk:
		n.vol.Add(stats.VolHeaders, int64(p.HdrBytes))
		n.vol.Add(stats.VolData, int64(p.PayloadBytes))
	}
}

// Volume returns accumulated application traffic volume by kind.
func (n *Network) Volume() stats.Volume { return n.vol }

// PacketsSent returns the count of application and cross-traffic packets.
func (n *Network) PacketsSent() int64 { return n.packetsSent }

// Retries returns how many endpoint deliveries were back-pressured.
func (n *Network) Retries() int64 { return n.retries }

// CrossTrafficStats returns injected cross-traffic packet and byte counts.
func (n *Network) CrossTrafficStats() (packets, bytes int64) { return n.xPackets, n.xBytes }

// CrossTraffic describes the paper's bisection-emulation workload: I/O
// nodes on both edges of the mesh stream fixed-size messages across the
// bisection in both directions (Figure 6).
type CrossTraffic struct {
	// MsgBytes is the cross-traffic message size, header included (the
	// paper settles on 64).
	MsgBytes int
	// BytesPerCycle is the aggregate injection rate across the bisection,
	// in bytes per processor cycle (this is what is subtracted from the
	// native bisection to obtain the emulated bisection).
	BytesPerCycle float64
}

// StartCrossTraffic launches cross-traffic generators: one per row per
// direction, each sending MsgBytes-sized packets across the full width of
// the mesh at an even share of the aggregate rate. Generators run until
// StopCrossTraffic. Offsets are staggered deterministically to avoid
// phase-locking artifacts. A rate that leaves no emulated bisection is
// refused: the generators inject open-loop, so the links' reservation
// horizon would outrun simulated time until the event limit ended the
// run. So is a positive rate of messages smaller than HeaderBytes, which
// could carry no header.
func (n *Network) StartCrossTraffic(ct CrossTraffic, clk sim.Clock) {
	if n.Torus {
		panic("mesh: cross-traffic bisection emulation requires a mesh (the paper's topology)")
	}
	if native := n.BisectionBytesPerCycle(clk); ct.BytesPerCycle >= native {
		panic(fmt.Sprintf("mesh: %g B/cycle of cross-traffic leaves no bisection (native %.1f B/cycle)", ct.BytesPerCycle, native))
	}
	if ct.BytesPerCycle <= 0 {
		return
	}
	if ct.MsgBytes < HeaderBytes {
		panic(fmt.Sprintf("mesh: CrossTraffic.MsgBytes %d is smaller than the %d-byte header", ct.MsgBytes, HeaderBytes))
	}
	n.stopX = false
	gens := 2 * n.Height
	//lint:allow simlint/intmath one-time generator-period setup, latched as integer Time before any event runs
	perGen := ct.BytesPerCycle / float64(gens)
	//lint:allow simlint/intmath one-time generator-period setup, latched as integer Time before any event runs
	periodCycles := float64(ct.MsgBytes) / perGen
	//lint:allow simlint/intmath one-time generator-period setup, latched as integer Time before any event runs
	period := sim.Time(periodCycles * float64(clk.PsPerCycle()))
	if period <= 0 {
		period = 1
	}
	for g := 0; g < gens; g++ {
		y := g / 2
		eastbound := g%2 == 0
		src, dst := n.ID(0, y), n.ID(n.Width-1, y)
		if !eastbound {
			src, dst = dst, src
		}
		offset := period * sim.Time(g) / sim.Time(gens)
		n.scheduleXGen(src, dst, ct.MsgBytes, period, offset)
	}
}

// scheduleXGen starts one generator. Cross-traffic schedules no
// delivery, so the generator resends one packet every period.
func (n *Network) scheduleXGen(src, dst, size int, period, offset sim.Time) {
	p := &Packet{Src: src, Dst: dst, Class: ClassXTraffic, HdrBytes: HeaderBytes, PayloadBytes: size - HeaderBytes}
	var tick func()
	tick = func() {
		if n.stopX {
			return
		}
		n.Send(p)
		n.eng.After(period, tick)
	}
	n.eng.After(offset, tick)
}

// StopCrossTraffic halts all cross-traffic generators after their next
// tick check.
func (n *Network) StopCrossTraffic() { n.stopX = true }

// OccupiedLinks lists the directed links still reserved past now, most
// heavily loaded first is not guaranteed — order follows link indexing.
// At most max entries are returned (0 means no limit). Used by watchdog
// diagnostics to show where traffic is parked when a run stalls.
func (n *Network) OccupiedLinks(now sim.Time, max int) []string {
	var out []string
	for d := range n.busyUntil {
		for i, bu := range n.busyUntil[d] {
			if bu <= now {
				continue
			}
			a, b := n.linkEnds(d, i)
			out = append(out, fmt.Sprintf("%s link %d (%d<->%d) busy until %v", dirNames[d], i, a, b, bu))
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// LinkLoad is one directed link's traffic summary, for hot-spot
// reporting (run logs, telemetry).
type LinkLoad struct {
	Link        string  // canonical link name, e.g. "east003"
	A, B        int     // joined router node ids
	Bytes       int64   // bytes serialized over the run (bytes x hops)
	Utilization float64 // fraction of the elapsed interval spent serializing
}

// TopLinks returns the k most heavily loaded directed links over the
// interval [0, elapsed], sorted by bytes descending with the canonical
// link name as a deterministic tie-break. Links that carried no traffic
// are omitted, so the result may be shorter than k.
func (n *Network) TopLinks(elapsed sim.Time, k int) []LinkLoad {
	if k <= 0 || elapsed <= 0 {
		return nil
	}
	var all []LinkLoad
	for d := range n.linkBytes {
		for i, b := range n.linkBytes[d] {
			if b == 0 {
				continue
			}
			a, bb := n.linkEnds(d, i)
			all = append(all, LinkLoad{
				Link: linkName(d, i), A: a, B: bb, Bytes: b,
				//lint:allow simlint/intmath post-run utilization reporting; never feeds event times
				Utilization: float64(b) * float64(n.PsPerByte) / float64(elapsed),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		return all[i].Link < all[j].Link
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
