package mesh

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// fixedFault is a hand-controlled FaultInjector for precise assertions.
type fixedFault struct {
	jitter         sim.Time
	blockA, blockB int
	until          sim.Time
}

func (f *fixedFault) PacketDelay(src, dst int) sim.Time { return f.jitter }

func (f *fixedFault) LinkBlockedUntil(a, b int, t sim.Time) sim.Time {
	if ((a == f.blockA && b == f.blockB) || (a == f.blockB && b == f.blockA)) && t < f.until {
		return f.until
	}
	return 0
}

// countingFault counts PacketDelay draws and injects no fault.
type countingFault struct{ draws int }

func (f *countingFault) PacketDelay(src, dst int) sim.Time { f.draws++; return 0 }

func (f *countingFault) LinkBlockedUntil(a, b int, t sim.Time) sim.Time { return 0 }

// TestCrossTrafficSchedulesNoDelivery sends one cross-traffic packet
// across the mesh twice: each send reserves every link of its route and
// draws its fault delay once, but adds no event, so the same packet can
// be resent at once.
func TestCrossTrafficSchedulesNoDelivery(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	f := &countingFault{}
	n.SetFaultInjector(f)
	p := &Packet{Src: n.ID(0, 1), Dst: n.ID(7, 1), Class: ClassXTraffic, HdrBytes: 8, PayloadBytes: 56}
	for send := 1; send <= 2; send++ {
		n.Send(p)
		if f.draws != send {
			t.Errorf("send %d: %d PacketDelay draws, want %d", send, f.draws, send)
		}
		for x := 0; x < 7; x++ {
			if got, want := n.linkBytes[dirEast][n.link(dirEast, x, 1)], int64(64*send); got != want {
				t.Errorf("send %d: east link from (%d,1) carried %d bytes, want %d", send, x, got, want)
			}
		}
	}
	eng.Run()
	if d := eng.Dispatched(); d != 0 {
		t.Errorf("cross-traffic dispatched %d events, want none", d)
	}
}

func deliveryTime(t *testing.T, prep func(n *Network)) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	if prep != nil {
		prep(n)
	}
	var at sim.Time = -1
	n.Send(&Packet{Src: 0, Dst: 1, Class: ClassAM, HdrBytes: 8, PayloadBytes: 16,
		Deliver: func(now sim.Time, _ *Packet) { at = now }})
	eng.Run()
	if at < 0 {
		t.Fatal("packet never delivered")
	}
	return at
}

func TestJitterShiftsDeliveryExactly(t *testing.T) {
	base := deliveryTime(t, nil)
	const j = 5 * sim.Nanosecond
	got := deliveryTime(t, func(n *Network) {
		n.SetFaultInjector(&fixedFault{jitter: j})
	})
	if got != base+j {
		t.Errorf("jittered delivery at %v, want %v + %v", got, base, j)
	}
}

func TestOutageDelaysLinkReservation(t *testing.T) {
	base := deliveryTime(t, nil)
	until := 2 * sim.Microsecond
	got := deliveryTime(t, func(n *Network) {
		n.SetFaultInjector(&fixedFault{blockA: 0, blockB: 1, until: until})
	})
	if got <= base || got < until {
		t.Errorf("delivery at %v under outage until %v (baseline %v)", got, until, base)
	}
	// An outage on an unrelated link must not delay this packet.
	clear := deliveryTime(t, func(n *Network) {
		n.SetFaultInjector(&fixedFault{blockA: 30, blockB: 31, until: until})
	})
	if clear != base {
		t.Errorf("unrelated outage changed delivery: %v != %v", clear, base)
	}
}

func TestNilInjectorMatchesBaseline(t *testing.T) {
	base := deliveryTime(t, nil)
	got := deliveryTime(t, func(n *Network) {
		n.SetFaultInjector(&fixedFault{jitter: sim.Nanosecond})
		n.SetFaultInjector(nil)
	})
	if got != base {
		t.Errorf("nil injector delivery at %v, want baseline %v", got, base)
	}
}

func TestRealInjectorOutageCountsStats(t *testing.T) {
	in, err := fault.New("outage:node=*,start=0ps,dur=1us", 1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	base := deliveryTime(t, nil)
	got := deliveryTime(t, func(n *Network) { n.SetFaultInjector(in) })
	if got <= base {
		t.Errorf("delivery %v not delayed past baseline %v by a global outage", got, base)
	}
	if in.Stats().OutageDelays == 0 {
		t.Error("injector recorded no outage delays")
	}
}

func TestOccupiedLinksDump(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	// A large packet keeps its links reserved well past t=0.
	n.Send(&Packet{Src: 0, Dst: 2, Class: ClassBulk, HdrBytes: 8, PayloadBytes: 1024})
	occ := n.OccupiedLinks(0, 0)
	if len(occ) != 2 {
		t.Fatalf("OccupiedLinks = %v, want the two east links of the route", occ)
	}
	if !strings.Contains(occ[0], "east link") || !strings.Contains(occ[0], "0<->1") {
		t.Errorf("dump entry %q lacks direction and endpoints", occ[0])
	}
	if got := n.OccupiedLinks(0, 1); len(got) != 1 {
		t.Errorf("OccupiedLinks(max=1) returned %d entries", len(got))
	}
	eng.Run()
	if occ := n.OccupiedLinks(eng.Now(), 0); len(occ) != 0 {
		t.Errorf("links still occupied after drain: %v", occ)
	}
}
