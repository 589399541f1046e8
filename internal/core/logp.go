package core

import (
	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LogP holds the measured LogP parameters of a machine configuration, in
// processor cycles — the model the paper's related work (Martin et al.,
// "Effects of communication latency, overhead, and bandwidth in a cluster
// architecture") uses for message passing. The paper argues LogP predicts
// overhead and gap effects well but is too simple for the latency and
// bandwidth effects this study measures; these microbenchmarks let a user
// compare both framings on the same simulated machine.
type LogP struct {
	L float64 // latency: wire time of a small message, sender ready to receiver visible
	O float64 // overhead: processor busy time per message (send + receive averaged)
	G float64 // gap: minimum interval between messages at one node (1/bandwidth)
	P int     // processors
}

// MeasureLogP runs the classic ping and flood microbenchmarks.
func MeasureLogP(cfg machine.Config) LogP {
	oSend, oRecv := measureOverheads(cfg)
	rtt := measureRTT(cfg)
	g := measureGap(cfg)
	l := rtt/2 - oSend - oRecv
	if l < 0 {
		l = 0
	}
	return LogP{L: l, O: (oSend + oRecv) / 2, G: g, P: cfg.Nodes()}
}

// measureOverheads measures processor busy time for a send and a polled
// receive of a small message.
func measureOverheads(cfg machine.Config) (oSend, oRecv float64) {
	m := machine.New(cfg)
	to := partner(cfg)
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {})
	const n = 32
	var sendBusy, recvBusy sim.Time
	m.Run(func(p *machine.Proc) {
		switch p.ID {
		case 0:
			for i := 0; i < n; i++ {
				before := p.BD.T[stats.BucketMsgOverhead]
				p.Send(to, h, []int64{int64(i)}, nil)
				sendBusy += p.BD.T[stats.BucketMsgOverhead] - before
				p.Compute(300) // spacing: measure isolated sends
			}
		case to:
			p.SetRecvMode(machine.RecvPoll)
			for got := 0; got < n; {
				got += p.WaitAndHandle()
			}
			recvBusy = p.BD.T[stats.BucketMsgOverhead]
		}
	})
	clk := m.Clk
	return clk.ToCyclesF(sendBusy) / n, clk.ToCyclesF(recvBusy) / n
}

// measureRTT measures a request-reply round trip between node 0 and its
// partner.
func measureRTT(cfg machine.Config) float64 {
	m := machine.New(cfg)
	to := partner(cfg)
	var pongH am.HandlerID
	pingH := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		c.Reply(c.Src, pongH, nil, nil)
	})
	pongH = m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {})
	const n = 16
	var total sim.Time
	m.Run(func(p *machine.Proc) {
		switch p.ID {
		case 0:
			p.SetRecvMode(machine.RecvPoll)
			for i := 0; i < n; i++ {
				start := p.Now()
				p.Send(to, pingH, nil, nil)
				p.WaitAndHandle()
				total += p.Now() - start
			}
		case to:
			p.SetRecvMode(machine.RecvPoll)
			for i := 0; i < n; i++ {
				p.WaitAndHandle()
			}
		}
	})
	return m.Clk.ToCyclesF(total) / n
}

// measureGap floods small messages from one node and reports the steady
// interval between deliveries (bounded by either the sender's occupancy
// or the link bandwidth, whichever is tighter).
func measureGap(cfg machine.Config) float64 {
	m := machine.New(cfg)
	to := partner(cfg)
	var lastArrival, firstArrival sim.Time
	arrivals := 0
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		if arrivals == 0 {
			firstArrival = c.Now()
		}
		lastArrival = c.Now()
		arrivals++
	})
	const n = 64
	m.Run(func(p *machine.Proc) {
		switch p.ID {
		case 0:
			for i := 0; i < n; i++ {
				p.Send(to, h, nil, nil)
			}
		case to:
			p.SetRecvMode(machine.RecvPoll)
			for arrivals < n {
				p.WaitAndHandle()
			}
		}
	})
	if arrivals < 2 {
		return 0
	}
	return m.Clk.ToCyclesF(lastArrival-firstArrival) / float64(arrivals-1)
}
