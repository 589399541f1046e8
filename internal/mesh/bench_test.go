package mesh

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSend measures the host cost of one packet, Send through
// delivery, on the calibrated 8x4 grid: dimension-order routing on the
// mesh and on the torus, and the adaptive XY/YX choice, each sending a
// fresh packet. Sources and destinations cycle over every pair, and the
// network drains every 32 packets, so routes are short-lived but links
// do contend. resend is xy with each of the 32 packets of a batch reused
// from the last drained batch: the delivery event bound on a packet's
// first send is reused, so it allocates nothing.
func BenchmarkSend(b *testing.B) {
	for _, r := range []struct {
		name   string
		cfg    func() Config
		resend bool
	}{
		{"xy", alewifeCfg, false},
		{"torus", torusCfg, false},
		{"adaptive", func() Config { c := alewifeCfg(); c.AdaptiveXY = true; return c }, false},
		{"resend", alewifeCfg, true},
	} {
		b.Run(r.name, func(b *testing.B) {
			eng := sim.NewEngine()
			n := New(eng, r.cfg())
			nodes := n.Nodes()
			var batch [32]Packet
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var p *Packet
				if r.resend {
					p = &batch[i%32]
				} else {
					p = new(Packet)
				}
				p.Src, p.Dst, p.Class, p.HdrBytes, p.PayloadBytes = i%nodes, (i*11+5)%nodes, ClassAM, 8, 16
				n.Send(p)
				if i%32 == 31 {
					eng.Run()
				}
			}
			eng.Run()
		})
	}
}
