package mesh

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// geometries are the shapes the geometry tests cover: the calibrated
// 8x4 mesh, both degenerate lines, the largest scale-out mesh, and two
// tori (one with an even tie in each dimension).
func geometries() []Config {
	var out []Config
	for _, g := range []struct {
		w, h  int
		torus bool
	}{{8, 4, false}, {1, 8, false}, {8, 1, false}, {32, 16, false}, {8, 4, true}, {4, 4, true}} {
		c := alewifeCfg()
		c.Width, c.Height, c.Torus = g.w, g.h, g.torus
		out = append(out, c)
	}
	return out
}

func geoName(c Config) string {
	if c.Torus {
		return fmt.Sprintf("%dx%d-torus", c.Width, c.Height)
	}
	return fmt.Sprintf("%dx%d-mesh", c.Width, c.Height)
}

// TestLinkEndsRoundTrip: every directed link leaving a router gets an
// index whose ends are that router and its neighbour in the link's
// direction, and every index New allocates is reached exactly once per
// direction.
func TestLinkEndsRoundTrip(t *testing.T) {
	for _, c := range geometries() {
		t.Run(geoName(c), func(t *testing.T) {
			n := New(sim.NewEngine(), c)
			for d := range n.busyUntil {
				hits := make([]int, len(n.busyUntil[d]))
				for y := 0; y < c.Height; y++ {
					for x := 0; x < c.Width; x++ {
						nx, ny := x+dirStep[d][0], y+dirStep[d][1]
						if c.Torus {
							nx, ny = wrap(nx, c.Width), wrap(ny, c.Height)
						} else if nx < 0 || nx >= c.Width || ny < 0 || ny >= c.Height {
							continue // no link leaves the mesh's edge
						}
						idx := c.link(d, x, y)
						if idx < 0 || idx >= len(hits) {
							t.Fatalf("%s link from (%d,%d) = %d, outside [0,%d)", dirNames[d], x, y, idx, len(hits))
						}
						hits[idx]++
						a, b := c.linkEnds(d, idx)
						here, there := c.ID(x, y), c.ID(nx, ny)
						if !(a == here && b == there) && !(a == there && b == here) {
							t.Errorf("%s link %d from (%d,%d): ends %d,%d, want %d and %d",
								dirNames[d], idx, x, y, a, b, here, there)
						}
					}
				}
				for idx, h := range hits {
					if h != 1 {
						t.Errorf("%s link %d reached %d times, want once", dirNames[d], idx, h)
					}
				}
			}
		})
	}
}

// TestIdlePacketReservesHopsLinks: on an idle network a packet
// reserves exactly Hops(src, dst) links, each carrying its bytes once,
// and arrives after exactly Latency.
func TestIdlePacketReservesHopsLinks(t *testing.T) {
	const size = 24
	for _, c := range geometries() {
		t.Run(geoName(c), func(t *testing.T) {
			eng := sim.NewEngine()
			n := New(eng, c)
			// Every source, and destinations strided so the 512-node
			// mesh stays quick while every row and column is reached.
			stride := 1 + c.Nodes()/64
			for src := 0; src < c.Nodes(); src++ {
				for dst := src % stride; dst < c.Nodes(); dst += stride {
					for d := range n.linkBytes {
						clear(n.linkBytes[d])
					}
					sent := eng.Now()
					var at sim.Time = -1
					n.Send(&Packet{Src: src, Dst: dst, Class: ClassAM, HdrBytes: size,
						Deliver: func(now sim.Time, _ *Packet) { at = now }})
					links, bytes := linkTotals(n)
					hops := c.Hops(src, dst)
					if links != int64(hops) || bytes != int64(hops*size) {
						t.Fatalf("%d->%d reserved %d links (%d bytes), want Hops = %d", src, dst, links, bytes, hops)
					}
					eng.Run()
					if got, want := at-sent, c.Latency(hops, size); got != want {
						t.Fatalf("%d->%d delivered after %v, want Latency(%d, %d) = %v", src, dst, got, hops, size, want)
					}
				}
			}
		})
	}
}

// linkTotals counts the links that have carried traffic and the bytes
// they carried, since New or the last clear of linkBytes.
func linkTotals(n *Network) (links, bytes int64) {
	for d := range n.linkBytes {
		for _, b := range n.linkBytes[d] {
			if b > 0 {
				links++
			}
			bytes += b
		}
	}
	return links, bytes
}
