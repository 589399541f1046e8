// Package fixture is a host-parallel worker barrier: worker goroutines,
// sync/atomic counters driven through their methods (epoch.Add never
// names the package at the call site), and buffered park channels. In
// any sim scope, the engine included, it would let host interleaving
// leak into results: closedscope fires on the sync/atomic import, and
// rawconc on every goroutine, channel and select.
package fixture

import "sync/atomic" //want closedscope

type windowBarrier struct {
	epoch     atomic.Uint64
	remaining atomic.Int64
	wake      []chan struct{} //want rawconc
}

func (b *windowBarrier) open(workers int) {
	b.remaining.Store(int64(workers))
	b.epoch.Add(1)
	for w := 0; w < workers; w++ {
		w := w
		go func() { //want rawconc
			b.runShare(w)
			if b.remaining.Add(-1) == 0 {
				b.wake[workers] <- struct{}{} //want rawconc
			}
		}()
	}
	select { //want rawconc
	case <-b.wake[workers]: //want rawconc
	}
}

func (b *windowBarrier) runShare(w int) {}

// mergeOrder is the pure part of the barrier — checking (at, seq) order
// involves no host concurrency and is fine anywhere.
func mergeOrder(at, seq []uint64) bool {
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] || (at[i] == at[i-1] && seq[i] < seq[i-1]) {
			return false
		}
	}
	return true
}
