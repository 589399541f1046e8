// Package fixture is a host-parallel worker barrier: worker goroutines,
// sync/atomic counters driven through their methods (epoch.Add never
// names the package at the call site), and buffered park channels. In
// any sim scope, the engine included, it would let host interleaving
// leak into results, so rawconc must fire on every such line.
package fixture

import "sync/atomic"

type windowBarrier struct {
	epoch     atomic.Uint64   //want rawconc
	remaining atomic.Int64    //want rawconc
	wake      []chan struct{} //want rawconc
}

func (b *windowBarrier) open(workers int) {
	b.remaining.Store(int64(workers)) //want rawconc
	b.epoch.Add(1)                    //want rawconc
	for w := 0; w < workers; w++ {
		w := w
		go func() { //want rawconc
			b.runShare(w)
			if b.remaining.Add(-1) == 0 { //want rawconc
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
