package fixture

import (
	"sync"        //want closedscope
	"sync/atomic" //want closedscope
)

// Locks and atomics are fenced at their imports: no sim scope may
// import sync or sync/atomic, so rawconc need not find their uses.
var mu sync.Mutex

var counter int64

func bad(ch chan int) { //want rawconc
	go func() {}() //want rawconc
	ch <- 1 //want rawconc
	<-ch //want rawconc
	atomic.AddInt64(&counter, 1)
	for range ch { //want rawconc
	}
	select { //want rawconc
	default:
	}
}

func pureCompute(xs []float64) float64 {
	acc := 0.0
	for _, x := range xs {
		acc += x
	}
	return acc
}
