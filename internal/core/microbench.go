package core

import (
	"math"
	"slices"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// MissPenalties holds measured shared-memory access penalties in
// processor cycles, mirroring the cost table of the paper's Figure 3. A
// penalty whose roles the machine has no nodes for is NaN: not
// measured.
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

// missRoles are the nodes the Figure 3 microbenchmarks run on, picked
// from the geometry: the requester (node 0), the lines' home (its
// partner), a third party one hop from the home that dirties and shares
// lines, and the sharers that overflow the home's hardware directory
// pointers on the LimitLESS lines. A role the machine has no node for
// is -1 (third) or nil (sharers).
type missRoles struct {
	req, home, third int
	sharers          []int
}

func pickMissRoles(cfg machine.Config) missRoles {
	n := cfg.Nodes()
	r := missRoles{req: 0, home: partner(cfg), third: -1}
	if r.home == r.req {
		return r
	}
	// The row below the home when the machine has one, the neighbouring
	// column otherwise.
	switch {
	case cfg.Height > 1:
		r.third = r.home + cfg.Width
	case r.home > 1:
		r.third = r.home - 1
	case r.home+1 < n:
		r.third = r.home + 1
	}
	// One sharer more than the hardware pointers, the first nodes from
	// the middle of the machine on (16-21 on the 8x4 mesh) that play no
	// other role.
	for i := 0; i < n && len(r.sharers) <= cfg.Mem.HWPointers; i++ {
		if id := (n/2 + i) % n; id != r.req && id != r.home && id != r.third {
			r.sharers = append(r.sharers, id)
		}
	}
	if len(r.sharers) <= cfg.Mem.HWPointers {
		r.sharers = nil
	}
	return r
}

// MeasureMissPenalties runs targeted microbenchmarks on fresh machines
// with cfg and reports the achieved penalties. Rows whose roles the
// machine cannot host (see missRoles) are NaN.
func MeasureMissPenalties(cfg machine.Config) MissPenalties {
	nan := math.NaN()
	mp := MissPenalties{
		RemoteCleanRead: nan, RemoteDirtyRead: nan, LimitLESSRead: nan,
		RemoteCleanWrite: nan, RemoteInvalWrite: nan, RemoteDirtyWrite: nan, LimitLESSWrite: nan,
		NullAMCycles: nan,
	}
	m := machine.New(cfg)
	roles := pickMissRoles(cfg)
	req, home, third := roles.req, roles.home, roles.third
	remote, threeParty, limitless := home != req, third >= 0, roles.sharers != nil
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
		case slices.Contains(roles.sharers, p.ID):
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
			if !remote {
				return
			}
			mp.RemoteCleanRead = avg(p, cleanR, func(a mem.Addr) { p.Read(a) })
			if threeParty {
				mp.RemoteDirtyRead = avg(p, dirtyR, func(a mem.Addr) { p.Read(a) })
			}
			mp.RemoteCleanWrite = avg(p, cleanW, func(a mem.Addr) { p.Write(a, 1) })
			if threeParty {
				mp.RemoteInvalWrite = avg(p, invalW, func(a mem.Addr) { p.Write(a, 1) })
				mp.RemoteDirtyWrite = avg(p, dirtyW, func(a mem.Addr) { p.Write(a, 1) })
			}
			if limitless {
				p.Compute(40000) // LimitLESS sharers are in place by now
				mp.LimitLESSRead = avg(p, llR, func(a mem.Addr) { p.Read(a) })
				mp.LimitLESSWrite = avg(p, llW, func(a mem.Addr) { p.Write(a, 1) })
			}
		}
	})
	mp.NetLatency24 = NetLatencyCycles(cfg)
	if remote {
		mp.NullAMCycles = measureNullAM(cfg)
	}
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
