package mesh

import (
	"fmt"
	"sort"

	"repro/internal/obs"
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

// Packet is one network message. HdrBytes+PayloadBytes is the wire size.
type Packet struct {
	Src, Dst     int
	Class        Class
	HdrBytes     int
	PayloadBytes int

	// Deliver is invoked when the endpoint accepts the packet. It runs in
	// engine context and must not block. Nil packets are absorbed.
	Deliver func(now sim.Time, p *Packet)

	// Payload carries model-level contents (protocol ops, AM args). The
	// network does not interpret it.
	Payload interface{}
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

// bisectionLinks counts directed links crossing the X-dimension middle
// cut: 2 per row for a mesh, 4 per row for a torus (the cut severs the
// ring twice).
func (c Config) bisectionLinks() int {
	if c.Torus {
		return 4 * c.Height
	}
	return 2 * c.Height
}

// BisectionBytesPerCycle returns the native bisection bandwidth in bytes
// per processor cycle for the given clock.
func (c Config) BisectionBytesPerCycle(clk sim.Clock) float64 {
	//lint:allow simlint/intmath reporting figure (bandwidth label); never feeds event times
	return float64(c.bisectionLinks()) * float64(clk.PsPerCycle()) / float64(c.PsPerByte)
}

// Network is a simulated 2-D mesh.
type Network struct {
	eng *sim.Engine
	cfg Config

	// busyUntil[d][i] is the reservation horizon of directed link i in
	// direction d. X links: index y*(Width-1)+x for the link between
	// (x,y) and (x+1,y). Y links: index y*Width+x for the link between
	// (x,y) and (x,y+1).
	busyUntil [4][]sim.Time
	// linkBytes accumulates bytes serialized per directed link, for
	// utilization and hot-spot reporting.
	linkBytes [4][]int64

	endpoints []Endpoint

	// vol is application traffic volume by kind.
	vol stats.Volume
	// Cross-traffic accounting.
	xPackets, xBytes int64
	// Bytes that crossed the X-dimension bisection, by app vs cross.
	appBisectionBytes, xBisectionBytes int64

	packetsSent int64
	retries     int64

	stopX bool // stops cross-traffic generators

	// fault, when non-nil, perturbs link reservations and deliveries
	// (seeded fault and noise injection; see internal/fault).
	fault FaultInjector

	// Per-link instruments, allocated by SetMetrics; nil when metrics
	// are disabled (one nil check on the reservation path). Indexed like
	// busyUntil.
	mBusy  [4][]*obs.Counter // serialization time per link, ps
	mWait  [4][]*obs.Gauge   // high-water head wait (queueing delay), ps
	mQueue *obs.Histogram    // head wait distribution across all hops, ps
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

// Directions for link indexing.
const (
	dirEast = iota
	dirWest
	dirNorth // +y
	dirSouth // -y
)

// dirNames renders link directions for diagnostics and metric labels.
var dirNames = [4]string{"east", "west", "north", "south"}

// linkName renders the canonical label of directed link (d, idx). Zero
// padding keeps lexicographic metric order equal to numeric link order.
func linkName(d, idx int) string { return fmt.Sprintf("%s%03d", dirNames[d], idx) }

// SetMetrics registers the mesh's instruments on reg and begins
// recording: per-link serialization time (utilization numerator),
// per-link high-water head wait (queueing backlog), and the head-wait
// distribution across all hops. Purely passive — enabling metrics never
// perturbs packet timing. Call before traffic flows; nil is ignored.
func (n *Network) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for d := range n.busyUntil {
		n.mBusy[d] = make([]*obs.Counter, len(n.busyUntil[d]))
		n.mWait[d] = make([]*obs.Gauge, len(n.busyUntil[d]))
		for i := range n.busyUntil[d] {
			n.mBusy[d][i] = reg.Counter("mesh_link_busy_ps", "link="+linkName(d, i))
			n.mWait[d][i] = reg.Gauge("mesh_link_wait_hw_ps", "link="+linkName(d, i))
		}
	}
	n.mQueue = reg.Histogram("mesh_hop_wait_ps", "")
}

// New creates a mesh network. All endpoints default to AcceptAll.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Width < 1 || cfg.Height < 1 {
		panic(fmt.Sprintf("mesh: bad dimensions %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.PsPerByte <= 0 {
		panic("mesh: PsPerByte must be positive")
	}
	n := &Network{eng: eng, cfg: cfg}
	nx := (cfg.Width - 1) * cfg.Height
	ny := cfg.Width * (cfg.Height - 1)
	if cfg.Torus {
		nx = cfg.Width * cfg.Height
		ny = cfg.Width * cfg.Height
	}
	n.busyUntil[dirEast] = make([]sim.Time, nx)
	n.busyUntil[dirWest] = make([]sim.Time, nx)
	n.busyUntil[dirNorth] = make([]sim.Time, ny)
	n.busyUntil[dirSouth] = make([]sim.Time, ny)
	for d := range n.linkBytes {
		n.linkBytes[d] = make([]int64, len(n.busyUntil[d]))
	}
	n.endpoints = make([]Endpoint, cfg.Width*cfg.Height)
	for i := range n.endpoints {
		n.endpoints[i] = AcceptAll{}
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the number of routers (compute endpoints).
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Attach installs ep as the endpoint of node id.
func (n *Network) Attach(id int, ep Endpoint) { n.endpoints[id] = ep }

// XY returns the mesh coordinates of node id.
func (n *Network) XY(id int) (x, y int) { return id % n.cfg.Width, id / n.cfg.Width }

// ID returns the node id at coordinates (x, y).
func (n *Network) ID(x, y int) int { return y*n.cfg.Width + x }

// Hops returns the dimension-order hop count between two nodes (shortest
// way around each ring for a torus).
func (n *Network) Hops(src, dst int) int {
	sx, sy := n.XY(src)
	dx, dy := n.XY(dst)
	hx, hy := abs(dx-sx), abs(dy-sy)
	if n.cfg.Torus {
		if w := n.cfg.Width - hx; w < hx {
			hx = w
		}
		if w := n.cfg.Height - hy; w < hy {
			hy = w
		}
	}
	return hx + hy
}

// stepX decides the next X move from x toward dx: +1 (east) or -1
// (west), taking the short way around on a torus.
func (n *Network) stepX(x, dx int) int {
	if !n.cfg.Torus {
		if dx > x {
			return 1
		}
		return -1
	}
	fwd := ((dx - x) + n.cfg.Width) % n.cfg.Width
	if fwd <= n.cfg.Width-fwd {
		return 1
	}
	return -1
}

func (n *Network) stepY(y, dy int) int {
	if !n.cfg.Torus {
		if dy > y {
			return 1
		}
		return -1
	}
	fwd := ((dy - y) + n.cfg.Height) % n.cfg.Height
	if fwd <= n.cfg.Height-fwd {
		return 1
	}
	return -1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Send injects p into the network at the current simulated time. The
// packet is routed X-then-Y (or Y-then-X under the adaptive choice),
// reserving each link in turn; its Deliver callback (if any) runs when
// the destination endpoint accepts it. The returned time is when the
// packet's head actually enters its first link — under congestion this
// lags Now, which senders use to model finite output-queue depth.
func (n *Network) Send(p *Packet) sim.Time {
	now := n.eng.Now()
	n.packetsSent++
	n.account(p)

	wk := &walk{size: sim.Time(p.Size()) * n.cfg.PsPerByte, head: now}
	wk.x, wk.y = n.XY(p.Src)
	wk.dx, wk.dy = n.XY(p.Dst)
	wk.yFirst = n.cfg.AdaptiveXY && wk.x != wk.dx && wk.y != wk.dy &&
		n.yFirstFreer(wk.x, wk.y, wk.dx, wk.dy)
	depart := now
	for first := true; ; first = false {
		d, idx, ok := n.nextLink(wk)
		if !ok {
			break
		}
		wk.head = n.reserve(d, idx, wk.head, wk.size)
		if first {
			depart = wk.head - n.cfg.HopLatency
		}
	}
	if wk.cross {
		if p.Class == ClassXTraffic {
			n.xBisectionBytes += int64(p.Size())
		} else {
			n.appBisectionBytes += int64(p.Size())
		}
	}
	// Head passes the routers plus the ejection stage; the tail follows
	// by the serialization time.
	tail := wk.head + n.cfg.HopLatency + wk.size
	if n.fault != nil {
		tail += n.fault.PacketDelay(p.Src, p.Dst)
	}
	n.eng.At(tail, func() { n.deliver(p) })
	return depart
}

// walk is one packet's routing state while Send reserves its links.
type walk struct {
	size   sim.Time
	head   sim.Time
	x, y   int
	dx, dy int
	yFirst bool // route Y before X (the adaptive choice)
	cross  bool // crossed the X-dimension bisection
}

// nextLink picks the packet's next directed link per dimension-ordered
// routing (X then Y, or Y then X when the adaptive choice flipped),
// advances the walk's position, and flags bisection crossings. ok=false
// means the packet has arrived.
func (n *Network) nextLink(wk *walk) (d, idx int, ok bool) {
	w, h := n.cfg.Width, n.cfg.Height
	switch {
	case wk.x != wk.dx && (!wk.yFirst || wk.y == wk.dy):
		if n.stepX(wk.x, wk.dx) > 0 {
			d = dirEast
			if n.cfg.Torus {
				idx = wk.y*w + wk.x
				if wk.x == w/2-1 || wk.x == w-1 {
					wk.cross = true
				}
			} else {
				idx = wk.y*(w-1) + wk.x
				if wk.x == w/2-1 {
					wk.cross = true
				}
			}
			wk.x = (wk.x + 1) % w
		} else {
			d = dirWest
			if n.cfg.Torus {
				idx = wk.y*w + (wk.x-1+w)%w
				if wk.x == w/2 || wk.x == 0 {
					wk.cross = true
				}
			} else {
				idx = wk.y*(w-1) + (wk.x - 1)
				if wk.x == w/2 {
					wk.cross = true
				}
			}
			wk.x = (wk.x - 1 + w) % w
		}
		return d, idx, true
	case wk.y != wk.dy:
		if n.stepY(wk.y, wk.dy) > 0 {
			d = dirNorth
			idx = wk.y*w + wk.x
			wk.y = (wk.y + 1) % h
		} else {
			d = dirSouth
			if n.cfg.Torus {
				idx = ((wk.y-1+h)%h)*w + wk.x
			} else {
				idx = (wk.y-1)*w + wk.x
			}
			wk.y = (wk.y - 1 + h) % h
		}
		return d, idx, true
	}
	return 0, 0, false
}

// yFirstFreer reports whether the first Y-direction link out of (x,y) is
// free sooner than the first X-direction link (the adaptive XY/YX choice).
func (n *Network) yFirstFreer(x, y, dx, dy int) bool {
	w := n.cfg.Width
	var xd, xi int
	if n.stepX(x, dx) > 0 {
		xd = dirEast
		if n.cfg.Torus {
			xi = y*w + x
		} else {
			xi = y*(w-1) + x
		}
	} else {
		xd = dirWest
		if n.cfg.Torus {
			xi = y*w + (x-1+w)%w
		} else {
			xi = y*(w-1) + (x - 1)
		}
	}
	h := n.cfg.Height
	var yd, yi int
	if n.stepY(y, dy) > 0 {
		yd = dirNorth
		yi = y*w + x
	} else {
		yd = dirSouth
		if n.cfg.Torus {
			yi = ((y-1+h)%h)*w + x
		} else {
			yi = (y-1)*w + x
		}
	}
	return n.busyUntil[yd][yi] < n.busyUntil[xd][xi]
}

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
	n.linkBytes[d][idx] += int64(size / n.cfg.PsPerByte)
	if n.mBusy[d] != nil {
		n.mBusy[d][idx].Add(int64(size))
		wait := int64(start - head)
		n.mWait[d][idx].SetMax(wait)
		n.mQueue.Observe(wait)
	}
	return start + n.cfg.HopLatency
}

// linkEnds returns the node ids of the routers joined by directed link
// (d, idx), inverting the index scheme documented on busyUntil. Outage
// windows target nodes; a link is out when either endpoint is targeted.
func (n *Network) linkEnds(d, idx int) (a, b int) {
	w, h := n.cfg.Width, n.cfg.Height
	switch d {
	case dirEast, dirWest:
		if n.cfg.Torus {
			x, y := idx%w, idx/w
			return n.ID(x, y), n.ID((x+1)%w, y)
		}
		x, y := idx%(w-1), idx/(w-1)
		return n.ID(x, y), n.ID(x+1, y)
	default: // dirNorth, dirSouth
		x, y := idx%w, idx/w
		return n.ID(x, y), n.ID(x, (y+1)%h)
	}
}

func (n *Network) deliver(p *Packet) {
	if p.Class == ClassXTraffic {
		// Cross-traffic exits the mesh at the edge I/O nodes without
		// disturbing the compute node's network interface.
		return
	}
	ep := n.endpoints[p.Dst]
	ok, retryAt := ep.TryDeliver(n.eng.Now(), p)
	if ok {
		return
	}
	n.retries++
	if retryAt <= n.eng.Now() {
		retryAt = n.eng.Now() + n.cfg.HopLatency
	}
	n.eng.At(retryAt, func() { n.deliver(p) })
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

// bisectionCrossings returns bytes that crossed the mesh's X bisection,
// split into application and cross-traffic bytes.
func (n *Network) bisectionCrossings() (app, cross int64) {
	return n.appBisectionBytes, n.xBisectionBytes
}

// CrossTraffic describes the paper's bisection-emulation workload: I/O
// nodes on both edges of the mesh stream fixed-size messages across the
// bisection in both directions (Figure 6).
type CrossTraffic struct {
	// MsgBytes is the cross-traffic message size (the paper settles on 64).
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
// phase-locking artifacts.
func (n *Network) StartCrossTraffic(ct CrossTraffic, clk sim.Clock) {
	if n.cfg.Torus {
		panic("mesh: cross-traffic bisection emulation requires a mesh (the paper's topology)")
	}
	if ct.BytesPerCycle <= 0 || ct.MsgBytes <= 0 {
		return
	}
	n.stopX = false
	gens := 2 * n.cfg.Height
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
		src, dst := n.ID(0, y), n.ID(n.cfg.Width-1, y)
		if !eastbound {
			src, dst = dst, src
		}
		offset := period * sim.Time(g) / sim.Time(gens)
		n.scheduleXGen(src, dst, ct.MsgBytes, period, offset)
	}
}

func (n *Network) scheduleXGen(src, dst, size int, period, offset sim.Time) {
	var tick func()
	tick = func() {
		if n.stopX {
			return
		}
		n.Send(&Packet{
			Src: src, Dst: dst, Class: ClassXTraffic,
			HdrBytes: 8, PayloadBytes: size - 8,
		})
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
				Utilization: float64(b) * float64(n.cfg.PsPerByte) / float64(elapsed),
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

// uncongestedLatency returns the no-contention delivery time for a packet
// of size bytes over hops hops: the reference the timing tests compare
// deliveries against.
func (n *Network) uncongestedLatency(hops, size int) sim.Time {
	return sim.Time(hops+1)*n.cfg.HopLatency + sim.Time(size)*n.cfg.PsPerByte
}

// AvgHops returns the average dimension-order distance between distinct
// compute nodes, useful for calibration.
func (n *Network) AvgHops() float64 {
	total, pairs := 0, 0
	for s := 0; s < n.Nodes(); s++ {
		for d := 0; d < n.Nodes(); d++ {
			if s == d {
				continue
			}
			total += n.Hops(s, d)
			pairs++
		}
	}
	//lint:allow simlint/intmath topology statistic for docs/experiments; never feeds event times
	return float64(total) / float64(pairs)
}
