package apps

import (
	"cmp"
	"slices"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/psync"
)

const (
	// sendsPerPoll is the MP-poll cadence of a send loop: a poll after
	// every fourth fine-grained send.
	sendsPerPoll = 4
	// itemsPerPoll is the MP-poll cadence of a compute loop: a poll after
	// every eighth work item.
	itemsPerPoll = 8
)

// pollEvery polls p under MP-poll when the count n is a multiple of every.
func (m Mechanism) pollEvery(p *machine.Proc, n, every int) {
	if m == MPPoll && n%every == 0 {
		p.Poll()
	}
}

// ComputePoll is the MP-poll cadence of a compute loop: after work item
// i (counted from 0) it polls when i+1 is a multiple of eight.
func (m Mechanism) ComputePoll(p *machine.Proc, i int) { m.pollEvery(p, i+1, itemsPerPoll) }

// NewBarrier returns the barrier matching mech: a message-passing tree
// for the message mechanisms, a shared-memory combining tree otherwise.
func NewBarrier(m *machine.Machine, mech Mechanism) psync.Barrier {
	if mech.UsesMessages() {
		return psync.NewMsgBarrier(m)
	}
	return psync.NewSMBarrier(m)
}

// Shipment is one transfer of a plan: the items From sends To,
// ascending, and the base of their ghost block at To (0 when the plan
// places none).
type Shipment struct {
	From, To int
	Items    []int32
	Base     mem.Addr
}

// group splits each holder h's items sets[h] by owner, dropping h's own
// items and duplicates, and calls emit once per (holder, owner) group,
// in ascending holder, then owner order, with the group's items
// ascending. sets is left as it was; a holder's groups share one array.
func group[O int | int32](sets [][]int32, owner []O, emit func(holder, own int, items []int32)) {
	var scratch []int32
	for h, set := range sets {
		scratch = scratch[:0]
		for _, i := range set {
			if int(owner[i]) != h {
				scratch = append(scratch, i)
			}
		}
		slices.SortFunc(scratch, func(a, b int32) int { return cmp.Or(cmp.Compare(owner[a], owner[b]), cmp.Compare(a, b)) })
		rest := slices.Clone(slices.Compact(scratch))
		for len(rest) > 0 {
			n := 1
			for n < len(rest) && owner[rest[n]] == owner[rest[0]] {
				n++
			}
			emit(h, int(owner[rest[0]]), rest[:n:n])
			rest = rest[n:]
		}
	}
}

// transfer is what a ghost exchange and an owner flush share: the
// planned shipments, each node's expected message count per round, and
// the sending and waiting that every round repeats.
type transfer struct {
	mech  Mechanism
	chunk int // items per fine-grained message
	// ships holds the shipments by sender, then receiver; sender pr's
	// are ships[first[pr]:first[pr+1]].
	ships        []Shipment
	first        []int
	expect, recv []int
}

func newTransfer(procs int, mech Mechanism, chunk int) transfer {
	return transfer{mech: mech, chunk: chunk, first: make([]int, procs+1),
		expect: make([]int, procs), recv: make([]int, procs)}
}

// round is one processor's sending state for one round: the payload
// buffer, which serves every send because am copies args and values at
// injection, and the count of fine-grained sends.
type round struct {
	args  []int64
	vals  []float64
	sends int
}

// add plans shipment s: one message under Bulk, otherwise one per chunk
// of its items.
func (t *transfer) add(s Shipment) {
	t.ships = append(t.ships, s)
	t.first[s.From+1]++
	if t.mech == Bulk {
		t.expect[s.To]++
	} else {
		t.expect[s.To] += (len(s.Items) + t.chunk - 1) / t.chunk
	}
}

// index orders the added shipments by sender, keeping each sender's in
// the order they were added.
func (t *transfer) index() {
	for pr := 1; pr < len(t.first); pr++ {
		t.first[pr] += t.first[pr-1]
	}
	next := slices.Clone(t.first)
	bySender := make([]Shipment, len(t.ships))
	for _, s := range t.ships {
		bySender[next[s.From]] = s
		next[s.From]++
	}
	t.ships = bySender
}

// outgoing returns p's shipments.
func (t *transfer) outgoing(p *machine.Proc) []Shipment {
	return t.ships[t.first[p.ID]:t.first[p.ID+1]]
}

// send launches the message in r's buffer: a DMA charged its gather
// copy under Bulk, otherwise a fine-grained send that, under MP-poll,
// polls after every fourth of the round.
func (t *transfer) send(p *machine.Proc, r *round, dst int, h am.HandlerID) {
	if t.mech == Bulk {
		p.ChargeGather(len(r.vals))
		p.SendBulk(dst, h, r.args, r.vals)
		return
	}
	p.Send(dst, h, r.args, r.vals)
	r.sends++
	t.mech.pollEvery(p, r.sends, sendsPerPoll)
}

// Arrived counts one message of the round at node; the handlers a plan
// sends to call it.
func (t *transfer) Arrived(node int) { t.recv[node]++ }

// wait handles messages until all of p's have arrived, then rearms p
// for the next round.
func (t *transfer) wait(p *machine.Proc) {
	for t.recv[p.ID] < t.expect[p.ID] {
		p.WaitAndHandle()
	}
	t.recv[p.ID] = 0
}

// Ghosts is a planned ghost exchange: each round, every producer ships
// each consumer the items it owns that the consumer reads.
type Ghosts struct {
	transfer
	h am.HandlerID
}

// NewGhosts plans a ghost exchange over len(need) processors. need[c]
// lists the items consumer c reads, in any order; duplicates and c's own
// items are ignored. owner[i] is item i's producer. Each shipment goes
// to handler h: under Bulk as one message, otherwise in messages of
// chunk items. place, when not nil, is called once per shipment, in
// ascending consumer, then producer order, and returns the base of the
// shipment's ghost block at the consumer.
func NewGhosts[O int | int32](need [][]int32, owner []O, chunk int, mech Mechanism, h am.HandlerID, place func(Shipment) mem.Addr) *Ghosts {
	g := &Ghosts{transfer: newTransfer(len(need), mech, chunk), h: h}
	group(need, owner, func(c, pr int, items []int32) {
		s := Shipment{From: pr, To: c, Items: items}
		if place != nil {
			s.Base = place(s)
		}
		g.add(s)
	})
	g.index()
	return g
}

// Exchange ships p's items to their consumers, in ascending consumer
// order, then waits for p's own ghosts. encode appends to args and vals
// the message carrying items, the part of shipment s that starts at
// item off: a chunk, or all of s under Bulk.
func (g *Ghosts) Exchange(p *machine.Proc, encode func(args []int64, vals []float64, s *Shipment, off int, items []int32) ([]int64, []float64)) {
	var r round
	out := g.outgoing(p)
	for i := range out {
		s := &out[i]
		n := g.chunk
		if g.mech == Bulk {
			n = len(s.Items)
		}
		for off := 0; off < len(s.Items); off += n {
			r.args, r.vals = encode(r.args[:0], r.vals[:0], s, off, s.Items[off:min(off+n, len(s.Items))])
			g.send(p, &r, s.To, g.h)
		}
	}
	g.wait(p)
}

// Flush is a planned owner flush: each round, every processor sends the
// partial sums it accumulated for items it does not own to their owners.
type Flush struct {
	transfer
	h, bulkH am.HandlerID
	touched  [][]int32
	owner    []int
}

// NewFlush plans an owner flush over len(touched) processors.
// touched[pr] lists, ascending, the items processor pr accumulates into,
// and owner[i] is item i's owner. Each owner expects one message per
// remote item, sent to handler h, or under Bulk one DMA from each
// processor that touched its items, sent to bulkH.
func NewFlush(touched [][]int32, owner []int, mech Mechanism, h, bulkH am.HandlerID) *Flush {
	f := &Flush{transfer: newTransfer(len(touched), mech, 1), h: h, bulkH: bulkH, touched: touched, owner: owner}
	group(touched, owner, func(pr, o int, items []int32) {
		f.add(Shipment{From: pr, To: o, Items: items})
	})
	f.index()
	return f
}

// Flush walks p's touched items in order, calling local, when not nil,
// for the items p owns and sending one message per remote item, then
// waits for the sums owed to p. Under Bulk the remote items instead go
// after the walk, one DMA per owner in ascending owner order. encode
// appends one item's sum to args and vals.
func (f *Flush) Flush(p *machine.Proc, local func(item int32), encode func(args []int64, vals []float64, item int32) ([]int64, []float64)) {
	var r round
	for _, v := range f.touched[p.ID] {
		switch o := f.owner[v]; {
		case o == p.ID:
			if local != nil {
				local(v)
			}
		case f.mech != Bulk:
			r.args, r.vals = encode(r.args[:0], r.vals[:0], v)
			f.send(p, &r, o, f.h)
		}
	}
	if f.mech == Bulk {
		for _, s := range f.outgoing(p) {
			r.args, r.vals = r.args[:0], r.vals[:0]
			for _, v := range s.Items {
				r.args, r.vals = encode(r.args, r.vals, v)
			}
			f.send(p, &r, s.To, f.bulkH)
		}
	}
	f.wait(p)
}
