package am

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestCtxComputeAndOverheadBuckets(t *testing.T) {
	r := newRig()
	var inHandler sim.Time
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {
		start := c.Now()
		c.Compute(40)
		c.Overhead(10)
		inHandler = c.Now() - start
	})
	var bdS, bdR stats.Breakdown
	r.eng.Spawn("recv", 0, func(th *sim.Thread) { r.waitAndDrain(th, 1, &bdR, true) })
	r.eng.Spawn("send", 0, func(th *sim.Thread) { r.sys.Send(th, 0, 1, h, nil, nil, &bdS) })
	r.eng.Run()
	if got := r.clk.ToCycles(inHandler); got != 50 {
		t.Errorf("handler consumed %d cycles, want 50", got)
	}
	if got := r.clk.ToCycles(bdR.T[stats.BucketCompute]); got != 40 {
		t.Errorf("handler compute charged %d cycles, want 40", got)
	}
}

func TestQueueDepthTracksArrivals(t *testing.T) {
	r := newRig()
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
	var bd stats.Breakdown
	r.eng.Spawn("send", 0, func(th *sim.Thread) {
		for i := 0; i < 5; i++ {
			r.sys.Send(th, 0, 1, h, nil, nil, &bd)
		}
	})
	r.eng.Run() // receiver never drains
	if got := r.sys.queueDepth(1); got != 5 {
		t.Errorf("queue depth = %d, want 5", got)
	}
	if r.sys.queueDepth(2) != 0 {
		t.Error("unrelated node has queued messages")
	}
}

func TestNIWordsCountsDoublesTwice(t *testing.T) {
	if got := niWords([]int64{1, 2}, []float64{1.0}); got != 4 {
		t.Errorf("niWords(2 args, 1 val) = %d, want 4", got)
	}
	if got := niWords(nil, nil); got != 0 {
		t.Errorf("niWords(nil,nil) = %d", got)
	}
}

func TestBulkRecvChargesDMACostNotPerWord(t *testing.T) {
	// A large bulk payload must not scale the receiver's dispatch cost
	// the way a fine-grained message would.
	recvOverhead := func(bulk bool) sim.Time {
		r := newRig()
		h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) {})
		var bdS, bdR stats.Breakdown
		r.eng.Spawn("send", 0, func(th *sim.Thread) {
			if bulk {
				r.sys.SendBulk(th, 0, 1, h, nil, make([]float64, 64), &bdS)
			} else {
				r.sys.Send(th, 0, 1, h, nil, make([]float64, 6), &bdS)
			}
		})
		r.eng.Spawn("recv", 0, func(th *sim.Thread) { r.waitAndDrain(th, 1, &bdR, true) })
		r.eng.Run()
		return bdR.T[stats.BucketMsgOverhead]
	}
	bulkCost := recvOverhead(true)  // 64 doubles via DMA
	fineCost := recvOverhead(false) // 6 doubles inline
	if bulkCost > 3*fineCost {
		t.Errorf("bulk receive %v much dearer than fine %v; DMA should not pay per word",
			bulkCost, fineCost)
	}
}
