package am

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
)

type rig struct {
	eng *sim.Engine
	net *mesh.Network
	clk sim.Clock
	sys *System
}

func newRig() *rig {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.Config{Width: 8, Height: 4, HopLatency: 40000, PsPerByte: 22223})
	clk := sim.NewClock(20)
	sys := NewSystem(eng, net, clk)
	for i := 0; i < net.Nodes(); i++ {
		net.Attach(i, sys.Endpoint(i))
	}
	return &rig{eng: eng, net: net, clk: clk, sys: sys}
}

// waitAndDrain blocks th until a message is pending, then drains with
// interrupt (or poll) costs.
func (r *rig) waitAndDrain(th *sim.Thread, node int, bd *stats.Breakdown, poll bool) {
	if !r.sys.HasPending(node) {
		r.sys.Notify(node, func() { th.WakeAt(r.eng.Now()) })
		th.Pause()
	}
	if poll {
		r.sys.Poll(th, node, bd)
	} else {
		r.sys.DrainInterrupts(th, node, bd)
	}
}

func TestNullActiveMessageCost(t *testing.T) {
	r := newRig()
	var handled sim.Time = -1
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) { handled = c.Now() })
	var bd0, bd1 stats.Breakdown
	var start sim.Time
	r.eng.Spawn("recv", 0, func(th *sim.Thread) {
		r.waitAndDrain(th, 1, &bd1, false)
	})
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		start = th.Now()
		r.sys.Send(th, 0, 1, h, nil, nil, &bd0)
	})
	r.eng.Run()
	if handled < 0 {
		t.Fatal("handler never ran")
	}
	total := r.clk.ToCyclesF(handled - start)
	// Paper: 102 cycles + 0.8/hop for a null message.
	if total < 60 || total > 140 {
		t.Errorf("null AM end-to-end = %.1f cycles, want ~80-110", total)
	}
	if r.sys.Events().MessagesSent != 1 || r.sys.Events().MessagesRecv != 1 {
		t.Errorf("message counters: %+v", r.sys.Events())
	}
}

func TestPollingCheaperThanInterruptsPerMessage(t *testing.T) {
	const msgs = 20
	recvOverhead := func(poll bool) sim.Time {
		r := newRig()
		h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
		var bdS, bdR stats.Breakdown
		r.eng.Spawn("send", 0, func(th *sim.Thread) {
			for i := 0; i < msgs; i++ {
				// Spaced sends: each message is received in isolation,
				// the common case when communication is spread through
				// a computation (no interrupt-entry amortization).
				th.Sleep(r.clk.Cycles(500))
				r.sys.Send(th, 0, 1, h, []int64{int64(i)}, nil, &bdS)
			}
		})
		r.eng.Spawn("recv", 0, func(th *sim.Thread) {
			for done := 0; done < msgs; {
				if !r.sys.HasPending(1) {
					r.sys.Notify(1, func() { th.WakeAt(r.eng.Now()) })
					th.Pause()
				}
				if poll {
					done += r.sys.Poll(th, 1, &bdR)
				} else {
					done += r.sys.DrainInterrupts(th, 1, &bdR)
				}
			}
		})
		r.eng.Run()
		return bdR.T[stats.BucketMsgOverhead]
	}
	intr := recvOverhead(false)
	poll := recvOverhead(true)
	if poll >= intr {
		t.Errorf("polled receive overhead %v >= interrupt %v", poll, intr)
	}
	// ICCG saw ~35%% overhead reduction; allow a broad band.
	ratio := float64(poll) / float64(intr)
	if ratio > 0.9 || ratio < 0.2 {
		t.Errorf("poll/interrupt overhead ratio = %.2f, want ~0.4-0.8", ratio)
	}
}

func TestHandlerReceivesArgsAndVals(t *testing.T) {
	r := newRig()
	var gotArgs []int64
	var gotVals []float64
	var gotSrc int
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {
		// args and vals are valid only until the handler returns.
		gotArgs = append([]int64(nil), args...)
		gotVals = append([]float64(nil), vals...)
		gotSrc = c.Src
	})
	var bd stats.Breakdown
	r.eng.Spawn("recv", 0, func(th *sim.Thread) { r.waitAndDrain(th, 5, &bd, true) })
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		r.sys.Send(th, 2, 5, h, []int64{7, 8}, []float64{1.5, 2.5}, &bd)
	})
	r.eng.Run()
	if gotSrc != 2 {
		t.Errorf("src = %d, want 2", gotSrc)
	}
	if len(gotArgs) != 2 || gotArgs[0] != 7 || gotArgs[1] != 8 {
		t.Errorf("args = %v", gotArgs)
	}
	if len(gotVals) != 2 || gotVals[0] != 1.5 || gotVals[1] != 2.5 {
		t.Errorf("vals = %v", gotVals)
	}
}

func TestHandlerReply(t *testing.T) {
	r := newRig()
	var pong bool
	var pongH HandlerID
	pongH = r.sys.Register(func(c *Ctx, args []int64, vals []float64) { pong = true })
	pingH := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {
		c.Reply(c.Src, pongH, nil, nil)
	})
	var bd0, bd1 stats.Breakdown
	r.eng.Spawn("n1", 0, func(th *sim.Thread) { r.waitAndDrain(th, 1, &bd1, false) })
	r.eng.Spawn("n0", 0, func(th *sim.Thread) {
		r.sys.Send(th, 0, 1, pingH, nil, nil, &bd0)
		r.waitAndDrain(th, 0, &bd0, false)
	})
	r.eng.Run()
	if !pong {
		t.Error("reply never handled")
	}
}

func TestFineGrainedVolumeAccounting(t *testing.T) {
	r := newRig()
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
	var bd stats.Breakdown
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		// 2 args (4B each) + 5 vals (8B each) = 48B payload + 8B header.
		r.sys.Send(th, 0, 9, h, []int64{1, 2}, []float64{1, 2, 3, 4, 5}, &bd)
	})
	var bdr stats.Breakdown
	r.eng.Spawn("recv", 0, func(th *sim.Thread) { r.waitAndDrain(th, 9, &bdr, true) })
	r.eng.Run()
	v := r.net.Volume()
	if v.Bytes[stats.VolHeaders] != 8 {
		t.Errorf("headers = %d, want 8", v.Bytes[stats.VolHeaders])
	}
	if v.Bytes[stats.VolData] != 48 {
		t.Errorf("data = %d, want 48", v.Bytes[stats.VolData])
	}
}

func TestBulkTransferPaddingAndDescriptor(t *testing.T) {
	r := newRig()
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
	var bd, bdr stats.Breakdown
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		// 3 args = 12B -> padded to 16B; +4 vals = 32B data. Header 8+8 desc.
		r.sys.SendBulk(th, 0, 9, h, []int64{1, 2, 3}, []float64{1, 2, 3, 4}, &bd)
	})
	r.eng.Spawn("recv", 0, func(th *sim.Thread) { r.waitAndDrain(th, 9, &bdr, true) })
	r.eng.Run()
	v := r.net.Volume()
	if v.Bytes[stats.VolHeaders] != 16 {
		t.Errorf("bulk headers = %d, want 16 (hdr+descriptor)", v.Bytes[stats.VolHeaders])
	}
	if v.Bytes[stats.VolData] != 48 {
		t.Errorf("bulk data = %d, want 48 (12 args padded to 16 + 32 vals)", v.Bytes[stats.VolData])
	}
	ev := r.sys.Events()
	if ev.BulkTransfers != 1 || ev.BulkBytes != 32 {
		t.Errorf("bulk counters = %+v", ev)
	}
}

func TestBulkAmortizesPerWordCost(t *testing.T) {
	// Sending N words fine-grained costs ~N*perWord at the sender; bulk
	// costs a fixed setup. Compare sender-side overhead for 64 words.
	sendOverhead := func(bulk bool) sim.Time {
		r := newRig()
		h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
		var bd, bdr stats.Breakdown
		vals := make([]float64, 64)
		r.eng.Spawn("send", 0, func(th *sim.Thread) {
			if bulk {
				r.sys.SendBulk(th, 0, 1, h, nil, vals, &bd)
			} else {
				for i := 0; i < len(vals); i += 4 {
					r.sys.Send(th, 0, 1, h, nil, vals[i:i+4], &bd)
				}
			}
		})
		r.eng.Spawn("recv", 0, func(th *sim.Thread) {
			for got := 0; got < 1; {
				r.waitAndDrain(th, 1, &bdr, true)
				if !bulk && r.sys.Events().MessagesRecv < 16 {
					continue
				}
				got = 1
			}
		})
		r.eng.Run()
		return bd.T[stats.BucketMsgOverhead]
	}
	fine := sendOverhead(false)
	bulk := sendOverhead(true)
	if bulk >= fine/2 {
		t.Errorf("bulk send overhead %v not well below fine-grained %v", bulk, fine)
	}
}

func TestInputQueueBackpressure(t *testing.T) {
	r := newRig()
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
	var bdS, bdR stats.Breakdown
	const msgs = 40 // well beyond InQueueCap=16
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		for i := 0; i < msgs; i++ {
			r.sys.Send(th, 0, 1, h, []int64{int64(i)}, nil, &bdS)
		}
	})
	r.eng.Spawn("recv", 0, func(th *sim.Thread) {
		// Slow consumer: drain one batch every 2000 cycles.
		for done := 0; done < msgs; {
			th.Sleep(r.clk.Cycles(2000))
			done += r.sys.Poll(th, 1, &bdR)
		}
	})
	r.eng.Run()
	if r.net.Retries() == 0 {
		t.Error("no network retries despite a full input queue")
	}
	if got := r.sys.Events().MessagesRecv; got != msgs {
		t.Errorf("received %d, want %d", got, msgs)
	}
}

func TestOutputBacklogStallsSender(t *testing.T) {
	r := newRig()
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
	var bd, bdr stats.Breakdown
	const msgs = 40
	payload := make([]float64, 400) // 3200B: far above the link rate
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		for i := 0; i < msgs; i++ {
			r.sys.SendBulk(th, 0, 1, h, nil, payload, &bd)
		}
	})
	r.eng.Spawn("recv", 0, func(th *sim.Thread) {
		for r.sys.Events().MessagesRecv < msgs {
			r.waitAndDrain(th, 1, &bdr, true)
		}
	})
	r.eng.Run()
	if r.sys.Events().NIQueueFullStall == 0 {
		t.Error("sender never stalled on injection backlog")
	}
	if bd.T[stats.BucketMemWait] == 0 {
		t.Error("no NI wait time charged to the sender")
	}
}

func TestNotifyOneShotAndDoubleArmPanics(t *testing.T) {
	r := newRig()
	r.sys.Notify(3, func() {})
	if !r.sys.notifyArmed(3) {
		t.Error("notify not armed")
	}
	defer func() {
		if recover() == nil {
			t.Error("double arm did not panic")
		}
	}()
	r.sys.Notify(3, func() {})
}

func TestOversizeInlineMessagePanics(t *testing.T) {
	r := newRig()
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
	var bd stats.Breakdown
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("oversize message did not panic")
			}
		}()
		r.sys.Send(th, 0, 1, h, make([]int64, 3), make([]float64, 6), &bd)
	})
	func() {
		defer func() { recover() }() // thread panic propagates via engine
		r.eng.Run()
	}()
}

func TestLocalLoopback(t *testing.T) {
	r := newRig()
	ran := false
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) { ran = true })
	var bd stats.Breakdown
	r.eng.Spawn("n0", 0, func(th *sim.Thread) {
		r.sys.Send(th, 0, 0, h, nil, nil, &bd)
		r.waitAndDrain(th, 0, &bd, true)
	})
	r.eng.Run()
	if !ran {
		t.Error("loopback handler never ran")
	}
	if r.net.PacketsSent() != 0 {
		t.Errorf("loopback used the network: %d packets", r.net.PacketsSent())
	}
}

func TestPayloadCopiedOnSend(t *testing.T) {
	r := newRig()
	var got []float64
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) { got = append(got, vals...) })
	var bd, bdr stats.Breakdown
	buf := []float64{1, 2, 3}
	r.eng.Spawn("recv", 0, func(th *sim.Thread) { r.waitAndDrain(th, 1, &bdr, true) })
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		r.sys.Send(th, 0, 1, h, nil, buf, &bd)
		buf[0] = 99 // mutate after send: receiver must see the original
	})
	r.eng.Run()
	if got[0] != 1 {
		t.Errorf("receiver saw mutated buffer: %v", got)
	}
}

func TestGatherScatterCycles(t *testing.T) {
	// Paper: up to 60 cycles per 16-byte line = 2 words.
	if GatherScatterCycles(2) != 60 {
		t.Errorf("GatherScatterCycles(2) = %d, want 60", GatherScatterCycles(2))
	}
	if GatherScatterCycles(0) != 0 {
		t.Error("zero words should cost zero")
	}
}

func TestManyToOneAllDelivered(t *testing.T) {
	r := newRig()
	received := make(map[int64]bool)
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) { received[args[0]] = true })
	var bdr stats.Breakdown
	const senders, per = 8, 10
	for sNode := 0; sNode < senders; sNode++ {
		sNode := sNode
		var bd stats.Breakdown
		r.eng.Spawn("send", 0, func(th *sim.Thread) {
			for i := 0; i < per; i++ {
				r.sys.Send(th, sNode+8, 2, h, []int64{int64(sNode*per + i)}, nil, &bd)
			}
		})
	}
	r.eng.Spawn("recv", 0, func(th *sim.Thread) {
		for len(received) < senders*per {
			r.waitAndDrain(th, 2, &bdr, false)
		}
	})
	r.eng.Run()
	if len(received) != senders*per {
		t.Errorf("received %d distinct messages, want %d", len(received), senders*per)
	}
}
