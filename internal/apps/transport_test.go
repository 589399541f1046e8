package apps

import (
	"testing"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/mem"
)

// TestTransport runs one ghost exchange and one owner flush on 8 nodes
// with a synthetic need set under each message-passing mechanism.
// Processors 0-2 own every item and need only their own items, so in
// the exchange they only send; processors 3-7 only receive and start
// after a long spin, so every poll counted while the producers send is a
// send-loop poll.
func TestTransport(t *testing.T) {
	const (
		procs  = 8
		nItems = 48
		chunk  = 3
		idle   = 200000 // cycles the consumers spin before exchanging
	)
	owner := make([]int, nItems)
	for i := range owner {
		owner[i] = (i * 7 / 5) % 3
	}
	// need[c] holds duplicates; the producers' sets hold only their own
	// items, and processor 7 needs nothing.
	need := make([][]int32, procs)
	for c := 3; c < 7; c++ {
		for i := nItems - 1; i >= 0; i-- {
			if (i*(c+2)+c)%5 < 2 {
				need[c] = append(need[c], int32(i), int32(i))
			}
		}
	}
	for pr := 0; pr < 3; pr++ {
		for i := range owner {
			if owner[i] == pr && i%4 == 0 {
				need[pr] = append(need[pr], int32(i))
			}
		}
	}
	// touched[pr]: ascending, own and remote items alike.
	touched := make([][]int32, procs)
	for pr := range touched {
		for i := 0; i < nItems; i++ {
			if (i+pr)%3 == 0 || i%7 == pr {
				touched[pr] = append(touched[pr], int32(i))
			}
		}
	}

	// want[c][pr] is the ascending set of items pr ships c.
	want := make([][][]int32, procs)
	for c := range want {
		want[c] = make([][]int32, procs)
		for i := 0; i < nItems; i++ {
			for _, j := range need[c] {
				if int(j) == i && owner[i] != c {
					want[c][owner[i]] = append(want[c][owner[i]], j)
					break
				}
			}
		}
	}

	for _, mech := range []Mechanism{MPInterrupt, MPPoll, Bulk} {
		t.Run(mech.String(), func(t *testing.T) {
			cfg, err := machine.ConfigForNodes(procs)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(cfg)
			home := make([]mem.Addr, nItems)
			for i := range home {
				home[i] = m.Alloc(owner[i], 1)
				m.Store.Poke(home[i], float64(1000+i))
			}

			var g *Ghosts
			landed := map[mem.Addr]int{}
			ghostMsgs := make([]int, procs)
			ghostH := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
				for k, v := range vals {
					a := mem.Addr(args[0]) + mem.Addr(k)
					m.Store.Poke(a, v)
					landed[a]++
				}
				ghostMsgs[c.Node]++
				g.Arrived(c.Node)
			})
			var f *Flush
			flushed := map[[3]int]int{} // (owner, item, sender) -> arrivals
			flushMsgs := make([]int, procs)
			flushH := func(c *am.Ctx, args []int64, _ []float64) {
				for _, item := range args {
					flushed[[3]int{c.Node, int(item), c.Src}]++
				}
				flushMsgs[c.Node]++
				f.Arrived(c.Node)
			}
			h, bulkH := m.AM.Register(flushH), m.AM.Register(flushH)

			var placed [][2]int // (consumer, producer) in placement order
			slot := map[[2]int]mem.Addr{}
			g = NewGhosts(need, owner, chunk, mech, ghostH, func(s Shipment) mem.Addr {
				placed = append(placed, [2]int{s.To, s.From})
				base := m.Alloc(s.To, len(s.Items))
				for k, i := range s.Items {
					slot[[2]int{s.To, int(i)}] = base + mem.Addr(k)
				}
				return base
			})
			f = NewFlush(touched, owner, mech, h, bulkH)

			shipped := make([][]int, procs) // consumers in p's send order
			sendPolls := int64(-1)
			locals := make([]int, procs)
			flushOrder := make([][]int32, procs)
			m.Run(func(p *machine.Proc) {
				p.SetRecvMode(mech.RecvMode())
				if p.ID >= 3 {
					p.SpinCycles(idle)
				}
				g.Exchange(p, func(args []int64, vals []float64, s *Shipment, off int, items []int32) ([]int64, []float64) {
					if s.From != p.ID {
						t.Errorf("processor %d sent processor %d's shipment", p.ID, s.From)
					}
					if off == 0 {
						shipped[p.ID] = append(shipped[p.ID], s.To)
					}
					for _, i := range items {
						vals = append(vals, p.Peek(home[i]))
					}
					return append(args, int64(s.Base)+int64(off)), vals
				})
				if p.ID < 3 {
					// The last producer to finish sees every send poll;
					// the spin keeps flush polls out of the count.
					sendPolls = m.AM.Events().Polls
					p.SpinCycles(idle)
				}
				f.Flush(p, func(item int32) { locals[p.ID]++ }, func(args []int64, vals []float64, item int32) ([]int64, []float64) {
					flushOrder[p.ID] = append(flushOrder[p.ID], item)
					return append(args, int64(item)), append(vals, 1)
				})
			})

			// Placement, and so ghost allocation, in ascending (consumer,
			// producer) order; sends in ascending consumer order.
			var wantPlaced [][2]int
			for c := range want {
				for pr, items := range want[c] {
					if len(items) > 0 {
						wantPlaced = append(wantPlaced, [2]int{c, pr})
					}
				}
			}
			if len(placed) != len(wantPlaced) {
				t.Fatalf("placed %v, want %v", placed, wantPlaced)
			}
			for k := range placed {
				if placed[k] != wantPlaced[k] {
					t.Fatalf("placed %v, want %v", placed, wantPlaced)
				}
			}
			wantSends := 0
			for pr := 0; pr < procs; pr++ {
				var order []int
				sends := 0
				for c := range want {
					if n := len(want[c][pr]); n > 0 {
						order = append(order, c)
						sends += (n + chunk - 1) / chunk
					}
				}
				wantSends += sends / 4
				if len(shipped[pr]) != len(order) {
					t.Errorf("processor %d shipped to %v, want %v", pr, shipped[pr], order)
					continue
				}
				for k := range order {
					if shipped[pr][k] != order[k] {
						t.Errorf("processor %d shipped to %v, want %v", pr, shipped[pr], order)
						break
					}
				}
			}

			// Expected counts, and every item in its ghost block once.
			for c := 0; c < procs; c++ {
				wantMsgs := 0
				for _, items := range want[c] {
					switch {
					case len(items) == 0:
					case mech == Bulk:
						wantMsgs++
					default:
						wantMsgs += (len(items) + chunk - 1) / chunk
					}
					for _, i := range items {
						a, ok := slot[[2]int{c, int(i)}]
						if !ok || landed[a] != 1 || m.Store.Peek(a) != float64(1000+i) {
							t.Errorf("consumer %d item %d: slot %v placed %v, landed %d times, holds %v",
								c, i, a, ok, landed[a], m.Store.Peek(a))
						}
					}
				}
				if g.expect[c] != wantMsgs || ghostMsgs[c] != wantMsgs {
					t.Errorf("consumer %d expected %d ghost messages and received %d, want %d",
						c, g.expect[c], ghostMsgs[c], wantMsgs)
				}
			}
			if len(landed) != len(slot) {
				t.Errorf("%d ghost words written, want %d", len(landed), len(slot))
			}

			if mech != MPPoll {
				wantSends = 0
			}
			if sendPolls != int64(wantSends) {
				t.Errorf("Events.Polls after the producers' sends = %d, want %d", sendPolls, wantSends)
			}

			// Flush: expected counts equal the messages received, each
			// remote sum arrives once, own items stay local, and Bulk
			// batches go in ascending owner order.
			wantFlush := make([]int, procs)
			for pr, items := range touched {
				own := 0
				sentTo := map[int]bool{}
				for _, i := range items {
					o := owner[i]
					if o == pr {
						own++
						continue
					}
					if n := flushed[[3]int{o, int(i), pr}]; n != 1 {
						t.Errorf("item %d from %d reached owner %d %d times", i, pr, o, n)
					}
					if mech != Bulk || !sentTo[o] {
						wantFlush[o]++
					}
					sentTo[o] = true
				}
				if locals[pr] != own {
					t.Errorf("processor %d flushed %d items locally, want %d", pr, locals[pr], own)
				}
				for k := 1; k < len(flushOrder[pr]); k++ {
					a, b := flushOrder[pr][k-1], flushOrder[pr][k]
					if mech == Bulk && owner[a] > owner[b] || mech != Bulk && a > b {
						t.Errorf("processor %d flushed items in order %v", pr, flushOrder[pr])
						break
					}
				}
			}
			for o := range wantFlush {
				if f.expect[o] != wantFlush[o] || flushMsgs[o] != wantFlush[o] {
					t.Errorf("owner %d expected %d flushes and received %d, want %d",
						o, f.expect[o], flushMsgs[o], wantFlush[o])
				}
			}
		})
	}
}
