package mesh

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSend measures the host cost of one packet, Send through
// delivery, on the calibrated 8x4 grid: dimension-order routing on the
// mesh and on the torus, and the adaptive XY/YX choice. Sources and
// destinations cycle over every pair, and the network drains every 32
// packets, so routes are short-lived but links do contend.
func BenchmarkSend(b *testing.B) {
	for _, r := range []struct {
		name string
		cfg  func() Config
	}{
		{"xy", alewifeCfg},
		{"torus", torusCfg},
		{"adaptive", func() Config { c := alewifeCfg(); c.AdaptiveXY = true; return c }},
	} {
		b.Run(r.name, func(b *testing.B) {
			eng := sim.NewEngine()
			n := New(eng, r.cfg())
			nodes := n.Nodes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Send(&Packet{Src: i % nodes, Dst: (i*11 + 5) % nodes, Class: ClassAM, HdrBytes: 8, PayloadBytes: 16})
				if i%32 == 31 {
					eng.Run()
				}
			}
			eng.Run()
		})
	}
}
