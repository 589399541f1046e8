package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func torusCfg() Config {
	c := alewifeCfg()
	c.Torus = true
	return c
}

func TestTorusHopsShortWay(t *testing.T) {
	n := torusCfg()
	cases := []struct{ src, dst, want int }{
		{0, 0, 0},
		{0, 7, 1},                       // wrap: (0,0) -> (7,0) is 1 hop west
		{0, 4, 4},                       // half way: either direction is 4
		{0, 31, 2},                      // (0,0)->(7,3): 1 west wrap + 1 south wrap
		{n.ID(1, 0), n.ID(6, 3), 3 + 1}, // x: 1->6 short way = 3 west; y: 0->3 wrap = 1
	}
	for _, c := range cases {
		if got := n.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestTorusHopsNeverExceedMesh(t *testing.T) {
	tor, msh := torusCfg(), alewifeCfg()
	prop := func(a, b uint8) bool {
		s, d := int(a)%32, int(b)%32
		return tor.Hops(s, d) <= msh.Hops(s, d)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusAvgHopsBelowMesh(t *testing.T) {
	tor, msh := torusCfg(), alewifeCfg()
	if tor.AvgHops() >= msh.AvgHops() {
		t.Errorf("torus avg hops %.2f >= mesh %.2f", tor.AvgHops(), msh.AvgHops())
	}
}

func TestTorusDelivery(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, torusCfg())
	delivered := 0
	// Wraparound route: 1 hop.
	var at sim.Time
	n.Send(&Packet{Src: 0, Dst: 7, Class: ClassAM, HdrBytes: 24,
		Deliver: func(now sim.Time, _ *Packet) { delivered++; at = now }})
	eng.Run()
	if delivered != 1 {
		t.Fatal("packet not delivered")
	}
	if want := n.Latency(1, 24); at != want {
		t.Errorf("wrap delivery at %v, want %v", at, want)
	}
}

func TestTorusAllPairsDeliver(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, torusCfg())
	want := 0
	got := 0
	for s := 0; s < 32; s += 3 {
		for d := 0; d < 32; d += 5 {
			want++
			n.Send(&Packet{Src: s, Dst: d, Class: ClassAM, HdrBytes: 8,
				Deliver: func(now sim.Time, _ *Packet) { got++ }})
		}
	}
	eng.Run()
	if got != want {
		t.Errorf("delivered %d of %d", got, want)
	}
}

func TestTorusDoublesBisection(t *testing.T) {
	clk := sim.NewClock(20)
	m := alewifeCfg().BisectionBytesPerCycle(clk)
	tc := torusCfg().BisectionBytesPerCycle(clk)
	if tc != 2*m {
		t.Errorf("torus bisection %.1f, want 2x mesh %.1f", tc, m)
	}
}

func TestTorusWrapCrossingCounted(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, torusCfg())
	// 0 -> 7 goes west over the wrap link: that crosses the (second cut
	// of the) bisection.
	n.Send(&Packet{Src: 0, Dst: 7, Class: ClassAM, HdrBytes: 24})
	eng.Run()
	got := bisectionLoads(n)
	if len(got) != 1 || got[0].A != 7 || got[0].B != 0 || got[0].Bytes != 24 {
		t.Errorf("bisection links loaded = %+v, want 24 bytes on the wrap link 7-0", got)
	}
}

func TestTorusRejectsCrossTraffic(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, torusCfg())
	defer func() {
		if recover() == nil {
			t.Error("cross-traffic on torus did not panic")
		}
	}()
	n.StartCrossTraffic(CrossTraffic{MsgBytes: 64, BytesPerCycle: 4}, sim.NewClock(20))
}

func TestTorusDeterministicContention(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine()
		n := New(eng, torusCfg())
		for i := 0; i < 50; i++ {
			n.Send(&Packet{Src: i % 32, Dst: (i*7 + 3) % 32, Class: ClassAM, HdrBytes: 24})
		}
		return eng.Run()
	}
	if run() != run() {
		t.Error("torus contention nondeterministic")
	}
}

func TestAdaptiveRoutingDeliversAndIsDeterministic(t *testing.T) {
	run := func() (sim.Time, int) {
		eng := sim.NewEngine()
		cfg := alewifeCfg()
		cfg.AdaptiveXY = true
		n := New(eng, cfg)
		got := 0
		for i := 0; i < 100; i++ {
			n.Send(&Packet{Src: i % 32, Dst: (i*11 + 5) % 32, Class: ClassAM, HdrBytes: 24,
				Deliver: func(now sim.Time, _ *Packet) { got++ }})
		}
		return eng.Run(), got
	}
	t1, g1 := run()
	t2, g2 := run()
	if g1 != 100 || g2 != 100 {
		t.Fatalf("delivered %d/%d of 100", g1, g2)
	}
	if t1 != t2 {
		t.Error("adaptive routing nondeterministic")
	}
}

func TestAdaptiveRoutingAvoidsHotColumn(t *testing.T) {
	// Flood the X links of row 0, then send a packet from (0,0) to (4,2):
	// XY order queues behind the flood, YX escapes it. The adaptive
	// network must deliver no later than the deterministic one.
	measure := func(adaptive bool) sim.Time {
		eng := sim.NewEngine()
		cfg := alewifeCfg()
		cfg.AdaptiveXY = adaptive
		n := New(eng, cfg)
		for i := 0; i < 30; i++ {
			n.Send(&Packet{Src: n.ID(0, 0), Dst: n.ID(7, 0), Class: ClassAM, HdrBytes: 64})
		}
		var at sim.Time
		n.Send(&Packet{Src: n.ID(0, 0), Dst: n.ID(4, 2), Class: ClassAM, HdrBytes: 24,
			Deliver: func(now sim.Time, _ *Packet) { at = now }})
		eng.Run()
		return at
	}
	det := measure(false)
	ada := measure(true)
	if ada > det {
		t.Errorf("adaptive delivery %v later than deterministic %v", ada, det)
	}
	if ada == det {
		t.Log("note: adaptive made no difference on this pattern")
	}
}
