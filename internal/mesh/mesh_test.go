package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

// alewifeCfg mirrors the calibrated machine defaults: 8x4 mesh, 2.25
// bytes/cycle/link at 20MHz (22222 ps/byte), 0.8-cycle hop latency.
func alewifeCfg() Config {
	return Config{Width: 8, Height: 4, HopLatency: 40000, PsPerByte: 22223}
}

func TestXYIDRoundTrip(t *testing.T) {
	n := alewifeCfg()
	for id := 0; id < n.Nodes(); id++ {
		x, y := n.XY(id)
		if n.ID(x, y) != id {
			t.Fatalf("ID(XY(%d)) = %d", id, n.ID(x, y))
		}
		if x < 0 || x >= 8 || y < 0 || y >= 4 {
			t.Fatalf("node %d out of grid: (%d,%d)", id, x, y)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	n := alewifeCfg()
	cases := []struct{ src, dst, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 7, 7},
		{0, 31, 10}, // (0,0) -> (7,3)
		{n.ID(3, 1), n.ID(5, 2), 3},
	}
	for _, c := range cases {
		if got := n.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	n := alewifeCfg()
	prop := func(a, b uint8) bool {
		s, d := int(a)%n.Nodes(), int(b)%n.Nodes()
		return n.Hops(s, d) == n.Hops(d, s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestUncongestedDeliveryTime(t *testing.T) {
	eng := sim.NewEngine()
	cfg := alewifeCfg()
	n := New(eng, cfg)
	var at sim.Time = -1
	p := &Packet{
		Src: 0, Dst: n.ID(4, 2), Class: ClassAM, HdrBytes: 8, PayloadBytes: 16,
		Deliver: func(now sim.Time, _ *Packet) { at = now },
	}
	n.Send(p)
	eng.Run()
	hops := n.Hops(0, n.ID(4, 2)) // 6
	want := n.Latency(hops, 24)
	if at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
	// Sanity: a 24-byte packet over ~avg distance should be ~15 cycles
	// at 20MHz (the paper's Table 1 Alewife row).
	clk := sim.NewClock(20)
	cycles := clk.ToCyclesF(want)
	if cycles < 12 || cycles < 0 || cycles > 19 {
		t.Errorf("24B delivery = %.1f cycles, want ~15", cycles)
	}
}

func TestLocalDelivery(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	var at sim.Time = -1
	n.Send(&Packet{Src: 3, Dst: 3, Class: ClassAM, HdrBytes: 8,
		Deliver: func(now sim.Time, _ *Packet) { at = now }})
	eng.Run()
	if at < 0 {
		t.Fatal("local packet never delivered")
	}
	if at != n.Latency(0, 8) {
		t.Errorf("local delivery at %v, want %v", at, n.Latency(0, 8))
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	eng := sim.NewEngine()
	cfg := alewifeCfg()
	n := New(eng, cfg)
	// Two same-size packets over the same single link: the second's tail
	// must arrive one serialization time after the first's.
	var times []sim.Time
	deliver := func(now sim.Time, _ *Packet) { times = append(times, now) }
	for i := 0; i < 2; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Class: ClassAM, HdrBytes: 8, PayloadBytes: 56, Deliver: deliver})
	}
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(times))
	}
	gap := times[1] - times[0]
	want := sim.Time(64) * cfg.PsPerByte
	if gap != want {
		t.Errorf("second delivery gap = %v, want serialization %v", gap, want)
	}
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	var times []sim.Time
	deliver := func(now sim.Time, _ *Packet) { times = append(times, now) }
	// Rows 0 and 1: completely disjoint X paths.
	n.Send(&Packet{Src: n.ID(0, 0), Dst: n.ID(7, 0), Class: ClassAM, HdrBytes: 24, Deliver: deliver})
	n.Send(&Packet{Src: n.ID(0, 1), Dst: n.ID(7, 1), Class: ClassAM, HdrBytes: 24, Deliver: deliver})
	eng.Run()
	if times[0] != times[1] {
		t.Errorf("disjoint packets delivered at %v and %v, want equal", times[0], times[1])
	}
}

// bisectionLoads returns the loaded links, as TopLinks reports them,
// that join the halves x < Width/2 and x >= Width/2 (on a torus the wrap
// links join them too).
func bisectionLoads(n *Network) []LinkLoad {
	var out []LinkLoad
	half := n.Width / 2
	for _, l := range n.TopLinks(n.eng.Now()+1, n.Nodes()*4) {
		ax, _ := n.XY(l.A)
		bx, _ := n.XY(l.B)
		if (ax < half) != (bx < half) {
			out = append(out, l)
		}
	}
	return out
}

func TestDimensionOrderRoutingCrossesBisection(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	n.Send(&Packet{Src: n.ID(0, 0), Dst: n.ID(7, 3), Class: ClassAM, HdrBytes: 24})
	eng.Run()
	// X first along row 0: the packet crosses on the link (3,0)-(4,0).
	got := bisectionLoads(n)
	if len(got) != 1 || got[0].A != n.ID(3, 0) || got[0].B != n.ID(4, 0) || got[0].Bytes != 24 {
		t.Errorf("bisection links loaded = %+v, want 24 bytes on (3,0)-(4,0) only", got)
	}
	// A packet within the left half must not cross.
	eng = sim.NewEngine()
	n = New(eng, alewifeCfg())
	n.Send(&Packet{Src: n.ID(0, 0), Dst: n.ID(3, 3), Class: ClassAM, HdrBytes: 24})
	eng.Run()
	if got := bisectionLoads(n); len(got) != 0 {
		t.Errorf("intra-half packet crossed bisection: %+v", got)
	}
}

func TestVolumeAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	n.Send(&Packet{Src: 0, Dst: 1, Class: ClassCohReq, HdrBytes: 8})
	n.Send(&Packet{Src: 0, Dst: 1, Class: ClassCohInval, HdrBytes: 8})
	n.Send(&Packet{Src: 0, Dst: 1, Class: ClassCohData, HdrBytes: 8, PayloadBytes: 16})
	n.Send(&Packet{Src: 0, Dst: 1, Class: ClassAM, HdrBytes: 8, PayloadBytes: 40})
	eng.Run()
	v := n.Volume()
	if v.Bytes[stats.VolRequests] != 8 {
		t.Errorf("requests = %d, want 8", v.Bytes[stats.VolRequests])
	}
	if v.Bytes[stats.VolInvalidates] != 8 {
		t.Errorf("invalidates = %d, want 8", v.Bytes[stats.VolInvalidates])
	}
	if v.Bytes[stats.VolHeaders] != 16 {
		t.Errorf("headers = %d, want 16", v.Bytes[stats.VolHeaders])
	}
	if v.Bytes[stats.VolData] != 56 {
		t.Errorf("data = %d, want 56", v.Bytes[stats.VolData])
	}
}

type rejectingEndpoint struct {
	rejects int
	got     int
	when    []sim.Time
}

func (r *rejectingEndpoint) TryDeliver(now sim.Time, p *Packet) (bool, sim.Time) {
	if r.rejects > 0 {
		r.rejects--
		return false, now + 1000
	}
	r.got++
	r.when = append(r.when, now)
	return true, 0
}

func TestEndpointBackpressureRetries(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	ep := &rejectingEndpoint{rejects: 3}
	n.Attach(1, ep)
	n.Send(&Packet{Src: 0, Dst: 1, Class: ClassAM, HdrBytes: 8})
	eng.Run()
	if ep.got != 1 {
		t.Fatalf("packet delivered %d times, want 1", ep.got)
	}
	if n.Retries() != 3 {
		t.Errorf("retries = %d, want 3", n.Retries())
	}
}

// TestResentPacketAllocatesNothing resends one delivered packet: its
// delivery event, bound on the first send, is reused.
func TestResentPacketAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	got := 0
	p := &Packet{Src: 0, Dst: 5, Class: ClassAM, HdrBytes: 8, PayloadBytes: 16,
		Deliver: func(sim.Time, *Packet) { got++ }}
	n.Send(p)
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		n.Send(p)
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("resending a delivered packet: %v allocations, want 0", allocs)
	}
	if got != 102 {
		t.Errorf("%d deliveries, want 102", got)
	}
}

// crossTrafficEventLimit bounds the cross-traffic runs below: a
// generator that ignores StopCrossTraffic fails the test, not hangs it.
const crossTrafficEventLimit = 1_000_000

func TestCrossTrafficInjectsAndIsAbsorbed(t *testing.T) {
	eng := sim.NewEngine()
	eng.SetEventLimit(crossTrafficEventLimit)
	n := New(eng, alewifeCfg())
	clk := sim.NewClock(20)
	got := 0
	n.Attach(n.ID(7, 0), epFunc(func(now sim.Time, p *Packet) (bool, sim.Time) {
		got++
		return true, 0
	}))
	n.StartCrossTraffic(CrossTraffic{MsgBytes: 64, BytesPerCycle: 8}, clk)
	var pkts, bytes int64
	eng.At(clk.Cycles(10000), func() {
		n.StopCrossTraffic()
		pkts, bytes = n.CrossTrafficStats()
	})
	// Run returns only once the generators have stopped.
	eng.Run()
	if pkts == 0 {
		t.Fatal("no cross-traffic injected")
	}
	if bytes != pkts*64 {
		t.Errorf("bytes = %d, want %d", bytes, pkts*64)
	}
	if got != 0 {
		t.Errorf("cross-traffic disturbed a compute endpoint %d times", got)
	}
	// Rate check: 8 bytes/cycle for 10000 cycles = ~80000 bytes.
	if bytes < 70000 || bytes > 90000 {
		t.Errorf("cross bytes = %d, want ~80000", bytes)
	}
	pkts2, bytes2 := n.CrossTrafficStats()
	if pkts2 > pkts+int64(2*4) { // at most one in-flight tick per generator
		t.Errorf("cross-traffic kept flowing after stop: %d -> %d", pkts, pkts2)
	}
	// Every cross-traffic packet crosses the bisection exactly once.
	var cross int64
	for _, l := range bisectionLoads(n) {
		cross += l.Bytes
	}
	if cross != bytes2 {
		t.Errorf("bisection cross bytes = %d, want all %d", cross, bytes2)
	}
}

type epFunc func(now sim.Time, p *Packet) (bool, sim.Time)

func (f epFunc) TryDeliver(now sim.Time, p *Packet) (bool, sim.Time) { return f(now, p) }

func TestCrossTrafficDegradesAppLatency(t *testing.T) {
	// An app packet crossing the bisection must be slower under heavy
	// cross-traffic than without it.
	measure := func(rate float64) sim.Time {
		eng := sim.NewEngine()
		eng.SetEventLimit(crossTrafficEventLimit)
		n := New(eng, alewifeCfg())
		clk := sim.NewClock(20)
		if rate > 0 {
			n.StartCrossTraffic(CrossTraffic{MsgBytes: 64, BytesPerCycle: rate}, clk)
		}
		// Warm the network, then time one packet.
		var sent, recv sim.Time
		eng.At(clk.Cycles(5000), func() {
			sent = eng.Now()
			n.Send(&Packet{Src: n.ID(0, 0), Dst: n.ID(7, 0), Class: ClassAM, HdrBytes: 24,
				Deliver: func(now sim.Time, _ *Packet) { recv = now; n.StopCrossTraffic() }})
		})
		eng.Run()
		return recv - sent
	}
	free := measure(0)
	// 16 bytes/cycle of cross traffic on an 18 bytes/cycle bisection.
	loaded := measure(16)
	if loaded <= free {
		t.Errorf("latency under load %v <= unloaded %v", loaded, free)
	}
}

func TestBisectionBytesPerCycle(t *testing.T) {
	cfg := alewifeCfg()
	clk := sim.NewClock(20)
	got := cfg.BisectionBytesPerCycle(clk)
	if got < 17.5 || got > 18.5 {
		t.Errorf("native bisection = %.2f bytes/cycle, want ~18 (Table 1)", got)
	}
}

func TestAvgHops(t *testing.T) {
	// Over distinct pairs of the 8x4 grid: (E|dx| + E|dy|) * 1024/992,
	// with E|dx| + E|dy| = 2.625 + 1.25 on the mesh and 2 + 1 on the
	// torus.
	if got := alewifeCfg().AvgHops(); got != 4.0 {
		t.Errorf("8x4 mesh AvgHops = %v, want 4", got)
	}
	if got, want := torusCfg().AvgHops(), 96.0/31.0; got != want {
		t.Errorf("8x4 torus AvgHops = %v, want 96/31 = %v", got, want)
	}
	// One node: no pair of distinct nodes, and no distance to average.
	one := alewifeCfg()
	one.Width, one.Height = 1, 1
	if got := one.AvgHops(); got != 0 {
		t.Errorf("1x1 mesh AvgHops = %v, want 0", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Width: 0, Height: 4, PsPerByte: 1},
		{Width: 8, Height: 4, PsPerByte: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(sim.NewEngine(), cfg)
		}()
	}
}

func TestClassString(t *testing.T) {
	for c := ClassCohReq; c <= ClassXTraffic; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty string", int(c))
		}
	}
}

func TestTopLinks(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	for i := 0; i < 10; i++ {
		n.Send(&Packet{Src: 0, Dst: 7, Class: ClassAM, HdrBytes: 24})
	}
	end := eng.Run()
	all := n.TopLinks(end, 100)
	if len(all) != 7 {
		t.Fatalf("%d loaded links, want the 7 on the route: %+v", len(all), all)
	}
	var total int64
	for i, l := range all {
		total += l.Bytes
		if l.Link == "" {
			t.Errorf("link %d unnamed", i)
		}
		if l.Utilization <= 0 || l.Utilization > 1.01 {
			t.Errorf("%s utilization %f outside (0, 1]", l.Link, l.Utilization)
		}
		if i > 0 && (l.Bytes > all[i-1].Bytes || l.Bytes == all[i-1].Bytes && l.Link < all[i-1].Link) {
			t.Errorf("links out of order: %+v before %+v", all[i-1], l)
		}
	}
	if total != 10*24*7 {
		t.Errorf("total link bytes = %d, want %d (10 packets x 24B x 7 hops)", total, 10*24*7)
	}
	if top := n.TopLinks(end, 3); len(top) != 3 || top[0] != all[0] || top[2] != all[2] {
		t.Errorf("TopLinks(3) = %+v, want the first 3 of %+v", top, all)
	}
	if z := n.TopLinks(0, 3); z != nil {
		t.Errorf("zero-elapsed TopLinks = %+v, want none", z)
	}
}

func TestTopLinksCongestion(t *testing.T) {
	// A saturating flood should push the first link toward ~1.0.
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	for i := 0; i < 200; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Class: ClassAM, HdrBytes: 64})
	}
	end := eng.Run()
	top := n.TopLinks(end, 1)
	if len(top) != 1 || top[0].A != 0 || top[0].B != 1 {
		t.Fatalf("hottest link %+v, want the 0-1 link", top)
	}
	if top[0].Utilization < 0.9 {
		t.Errorf("flooded link utilization %.2f, want ~1.0", top[0].Utilization)
	}
}

// Property: no packet is ever delivered earlier than its uncongested
// latency (conservation of physics under any contention pattern).
func TestDeliveryLowerBoundProperty(t *testing.T) {
	prop := func(seeds []uint16) bool {
		if len(seeds) == 0 || len(seeds) > 60 {
			return true
		}
		eng := sim.NewEngine()
		n := New(eng, alewifeCfg())
		ok := true
		for _, s := range seeds {
			src := int(s) % 32
			dst := int(s/32) % 32
			size := 8 + int(s)%56
			sendAt := eng.Now()
			hops := n.Hops(src, dst)
			lb := n.Latency(hops, size)
			n.Send(&Packet{Src: src, Dst: dst, Class: ClassAM,
				HdrBytes: 8, PayloadBytes: size - 8,
				Deliver: func(now sim.Time, _ *Packet) {
					if now-sendAt < lb {
						ok = false
					}
				}})
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
