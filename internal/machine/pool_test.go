package machine

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/am"
)

// TestFinishedRunPinsNoMessageRecord checks that a machine kept after its
// run holds none of the message records pooled during it. A handler's
// args slice is its message record's own buffer, so a finalizer on that
// buffer runs only once nothing holds the record.
func TestFinishedRunPinsNoMessageRecord(t *testing.T) {
	m := New(DefaultConfig())
	released := make(chan struct{})
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		runtime.SetFinalizer(&args[0], func(*int64) { close(released) })
	})
	m.Run(func(p *Proc) {
		switch p.ID {
		case 0:
			p.Send(1, h, []int64{1, 2, 3, 4}, nil)
		case 1:
			p.SetRecvMode(RecvPoll)
			p.WaitAndHandle()
		}
	})
	timeout := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-released:
			done = true
		case <-timeout:
			t.Fatal("the finished machine still holds a pooled message record")
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(m)
}
