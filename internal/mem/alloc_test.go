package mem

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// missTimer is the part of *testing.B that runMisses drives, so the
// allocation test and BenchmarkRemoteMiss share one set-up.
type missTimer interface {
	StartTimer()
	StopTimer()
	ResetTimer()
}

// missKind selects the steady-state miss runMisses repeats.
type missKind int

const (
	// remoteRead: node 0 reads two lines homed at node 5 that share a
	// cache frame, so every read evicts the other line and misses.
	remoteRead missKind = iota
	// invalidatingWrite: nodes 1 and 2 read a line homed at node 5, then
	// node 0 writes it, so every write invalidates two sharers. Only the
	// writes run timed.
	invalidatingWrite
)

// runMisses runs warm untimed misses of kind k on a 32-node rig, then n
// more with tm started around each miss of the kind.
func runMisses(k missKind, warm, n int, tm missTimer) {
	tm.StopTimer()
	r := newRig()
	var bd stats.Breakdown
	lw := r.sys.par.LineWords
	frame := Addr(r.sys.par.CacheLines * lw) // words between two lines sharing a frame
	a := r.st.Alloc(5, int(frame)+lw)
	b := a + frame
	r.run(func(th *sim.Thread) {
		for i := 0; i < warm+n; i++ {
			if i == warm {
				tm.ResetTimer()
			}
			timed := i >= warm
			switch k {
			case remoteRead:
				if timed {
					tm.StartTimer()
				}
				r.sys.Load(th, 0, a, &bd, stats.BucketMemWait)
				a, b = b, a
			case invalidatingWrite:
				r.sys.Load(th, 1, a, &bd, stats.BucketMemWait)
				r.sys.Load(th, 2, a, &bd, stats.BucketMemWait)
				if timed {
					tm.StartTimer()
				}
				r.sys.StoreWord(th, 0, a, float64(i), &bd, stats.BucketMemWait)
				tm.StopTimer()
			}
		}
		tm.StopTimer()
	})
}

// mallocCounter is a missTimer that counts heap allocations while
// started.
type mallocCounter struct {
	on           bool
	start, total uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (m *mallocCounter) StartTimer() {
	if !m.on {
		m.on, m.start = true, mallocs()
	}
}

func (m *mallocCounter) StopTimer() {
	if m.on {
		m.on = false
		m.total += mallocs() - m.start
	}
}

func (m *mallocCounter) ResetTimer() {
	m.total = 0
	if m.on {
		m.start = mallocs()
	}
}

// TestSteadyStateMissAllocations pins the pooled transaction path: once
// the records exist, a miss allocates nothing. Each record's packet keeps
// the delivery event the network bound on its first send, and a store
// rides its transaction as an address and a value, not a closure.
func TestSteadyStateMissAllocations(t *testing.T) {
	const warm, n = 64, 400
	for _, c := range []struct {
		name string
		kind missKind
	}{
		{"remote read", remoteRead},
		{"write invalidating 2 sharers", invalidatingWrite},
	} {
		var m mallocCounter
		runMisses(c.kind, warm, n, &m)
		if per := float64(m.total) / n; per >= 0.1 {
			t.Errorf("%s: %.2f allocations per miss, want under 0.1", c.name, per)
		}
	}
}

// TestPooledRecordsPinNothing checks that a finished transaction's
// pooled record keeps no callback alive: the closure an atomic update
// hangs on its transaction must be collectable while the record sits in
// the pool.
func TestPooledRecordsPinNothing(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(5, 2)
	released := make(chan struct{})
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		obj := new([64]byte)
		runtime.SetFinalizer(obj, func(*[64]byte) { close(released) })
		r.sys.Update(th, 0, a, func() { obj[0]++ }, &bd, stats.BucketMemWait)
	})
	if len(r.sys.txnFree) == 0 {
		t.Fatal("the finished transaction was not pooled")
	}
	for _, tx := range r.sys.txnFree {
		if len(tx.onComplete) != 0 || len(tx.waiters) != 0 || tx.e != nil {
			t.Errorf("pooled record not reset: %d callbacks, %d waiters, entry %v",
				len(tx.onComplete), len(tx.waiters), tx.e)
		}
	}
	timeout := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-released:
			done = true
		case <-timeout:
			t.Fatal("a pooled transaction record still holds its completion callback")
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(r.sys)
}

// BenchmarkRemoteMiss measures one steady-state miss: a clean remote
// read, and a write that invalidates two sharers (the re-reads that make
// them sharers again run untimed).
func BenchmarkRemoteMiss(b *testing.B) {
	for _, c := range []struct {
		name string
		kind missKind
	}{{"read", remoteRead}, {"write-inval2", invalidatingWrite}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			runMisses(c.kind, 64, b.N, b)
		})
	}
}
