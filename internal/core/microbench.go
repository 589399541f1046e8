package core

import (
	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// MissPenalties holds measured shared-memory access penalties in
// processor cycles, mirroring the cost table of the paper's Figure 3.
type MissPenalties struct {
	LocalRead       float64 // paper: 11
	RemoteCleanRead float64 // paper: 38-42
	RemoteDirtyRead float64 // paper: 63 (3-party)
	LimitLESSRead   float64 // paper: 425

	LocalWrite       float64 // paper: 12
	RemoteCleanWrite float64 // paper: 38-40
	RemoteInvalWrite float64 // paper: 43-66 (invalidating one reader)
	RemoteDirtyWrite float64 // paper: 66-84 (3-party)
	LimitLESSWrite   float64 // paper: 707

	NullAMCycles float64 // paper: 102 (+0.8/hop)
	NetLatency24 float64 // paper: 15 (one-way 24B)
}

// partner is the node that every point-to-point microbenchmark pairs
// with node 0 at (0,0): node 4 at (4,0), four hops east on the default
// 8x4 mesh (the mesh's average distance), clamped to the first row on
// narrower machines.
func partner(cfg machine.Config) int { return min(4, cfg.Width-1) }

// MeasureMissPenalties runs targeted microbenchmarks on fresh machines
// with cfg and reports the achieved penalties. Remote cases use node 0
// and its partner.
func MeasureMissPenalties(cfg machine.Config) MissPenalties {
	var mp MissPenalties
	m := machine.New(cfg)
	// Requester 0; home its partner; third party one hop from the home —
	// the row below when the machine has one, the neighboring column
	// otherwise.
	req, home := 0, partner(cfg)
	var third int
	if cfg.Height > 1 {
		third = home + cfg.Width
	} else if home > 1 {
		third = home - 1
	} else {
		third = home + 1 // degenerate 1- or 2-node machines measure local-ish costs
	}
	mkAddrs := func(n int) []mem.Addr {
		out := make([]mem.Addr, n)
		for i := range out {
			out[i] = m.Alloc(home, 2)
		}
		return out
	}
	localAddrs := make([]mem.Addr, 32)
	for i := range localAddrs {
		localAddrs[i] = m.Alloc(req, 2)
	}
	cleanR := mkAddrs(16)
	dirtyR := mkAddrs(16)
	llR := mkAddrs(8)
	cleanW := mkAddrs(16)
	invalW := mkAddrs(16)
	dirtyW := mkAddrs(16)
	llW := mkAddrs(8)

	avg := func(p *machine.Proc, addrs []mem.Addr, op func(a mem.Addr)) float64 {
		start := p.Now()
		for _, a := range addrs {
			op(a)
		}
		return m.Clk.ToCyclesF(p.Now()-start) / float64(len(addrs))
	}

	m.Run(func(p *machine.Proc) {
		switch {
		case p.ID == third:
			// Dirty the dirty-read/write lines; share the inval lines.
			for _, a := range dirtyR {
				p.Write(a, 1)
			}
			for _, a := range dirtyW {
				p.Write(a, 1)
			}
			for _, a := range invalW {
				p.Read(a)
			}
		case p.ID >= 16 && p.ID < 22:
			// Six sharers overflow the 5-pointer directory on the
			// LimitLESS lines.
			p.Compute(8000)
			for _, a := range llR {
				p.Read(a)
			}
			for _, a := range llW {
				p.Read(a)
			}
		case p.ID == req:
			p.Compute(4000) // let the third party finish state setup
			mp.LocalRead = avg(p, localAddrs[:16], func(a mem.Addr) { p.Read(a) })
			mp.LocalWrite = avg(p, localAddrs[16:], func(a mem.Addr) { p.Write(a, 1) })
			mp.RemoteCleanRead = avg(p, cleanR, func(a mem.Addr) { p.Read(a) })
			mp.RemoteDirtyRead = avg(p, dirtyR, func(a mem.Addr) { p.Read(a) })
			mp.RemoteCleanWrite = avg(p, cleanW, func(a mem.Addr) { p.Write(a, 1) })
			mp.RemoteInvalWrite = avg(p, invalW, func(a mem.Addr) { p.Write(a, 1) })
			mp.RemoteDirtyWrite = avg(p, dirtyW, func(a mem.Addr) { p.Write(a, 1) })
			p.Compute(40000) // LimitLESS sharers are in place by now
			mp.LimitLESSRead = avg(p, llR, func(a mem.Addr) { p.Read(a) })
			mp.LimitLESSWrite = avg(p, llW, func(a mem.Addr) { p.Write(a, 1) })
		}
	})
	mp.NetLatency24 = NetLatencyCycles(cfg)
	mp.NullAMCycles = measureNullAM(cfg)
	return mp
}

// measureNullAM measures the end-to-end cost of a null active message
// from node 0 to its partner: send-construct through handler dispatch,
// under interrupt reception (the paper's 102-cycle figure).
func measureNullAM(cfg machine.Config) float64 {
	m := machine.New(cfg)
	to := partner(cfg)
	var sendAt, handleAt sim.Time
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		handleAt = c.Now()
	})
	m.Run(func(p *machine.Proc) {
		switch p.ID {
		case 0:
			p.Compute(100)
			sendAt = p.Now()
			p.Send(to, h, nil, nil)
		case to:
			p.WaitAndHandle()
		}
	})
	return m.Clk.ToCyclesF(handleAt - sendAt)
}
