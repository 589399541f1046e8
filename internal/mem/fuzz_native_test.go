package mem

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FuzzProtocolOps feeds byte-driven op sequences through the coherence
// protocol and checks exact semantics plus the full invariant sweep at
// quiescence. The first byte selects the protocol variant (consistency
// model x invalidate/update); each following byte decodes to one memory
// operation on a round-robin node. `make fuzz` explores new inputs; a
// plain `go test` still executes the seed corpus below.
func FuzzProtocolOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 9, 42, 7, 200, 13, 88, 3, 54, 99, 250, 17})
	f.Add([]byte{2, 0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60})
	f.Add([]byte("3 read-write-prefetch-rmw soup with enough ops to collide"))
	// Update protocol under RC: node 25's write prefetch is granted
	// Shared, and node 7's atomic invalidates the line while that reply
	// is in flight. The invalidation must wait for the fill, or node 25
	// keeps a Shared copy the directory no longer lists.
	f.Add([]byte("77227xAc28777777700x78200+,0000000002000x0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 128 {
			t.Skip("empty or oversized op stream")
		}
		runFuzzOps(t, data)
	})
}

func runFuzzOps(t *testing.T, data []byte) {
	const nodes = 32
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.Config{Width: 8, Height: 4, HopLatency: 40000, PsPerByte: 22223})
	clk := sim.NewClock(20)
	st := NewStore(nodes)
	par := DefaultParams()
	switch data[0] % 4 {
	case 1:
		par.Consistency = RC
	case 2:
		par.Protocol = ProtocolUpdate
	case 3:
		par.Consistency = RC
		par.Protocol = ProtocolUpdate
	}
	sys := NewSystem(eng, net, clk, par, st)

	const nShared = 4
	shared := make([]Addr, nShared)
	for i := range shared {
		shared[i] = st.Alloc(i, 2)
	}
	private := make([]Addr, nodes)
	for i := range private {
		private[i] = st.Alloc(i, 2)
	}

	// Decode one op per byte, round-robin across nodes so each node's
	// program order is fixed by the input alone.
	type op struct {
		kind int
		arg  int
	}
	progs := make([][]op, nodes)
	wantCount := make([]int, nShared)
	lastWrite := make([]float64, nodes)
	for i, b := range data[1:] {
		node := i % nodes
		o := op{kind: int(b) % 5, arg: int(b) / 5}
		switch o.kind {
		case 0:
			wantCount[o.arg%nShared]++
		case 1:
			lastWrite[node] = float64(o.arg + 1)
		}
		progs[node] = append(progs[node], o)
	}

	bds := make([]stats.Breakdown, nodes)
	for node := 0; node < nodes; node++ {
		node := node
		eng.Spawn("f", 0, func(th *sim.Thread) {
			want := 0.0
			for _, o := range progs[node] {
				switch o.kind {
				case 0: // atomic increment of a shared counter
					sys.RMW(th, node, shared[o.arg%nShared],
						func(v float64) float64 { return v + 1 }, &bds[node], stats.BucketSync)
				case 1: // store own private word
					want = float64(o.arg + 1)
					sys.StoreWord(th, node, private[node], want, &bds[node], stats.BucketMemWait)
				case 2: // read own private word: must see own last store
					if want != 0 {
						if got := sys.Load(th, node, private[node], &bds[node], stats.BucketMemWait); got != want {
							t.Errorf("node %d read-own-write got %v, want %v", node, got, want)
						}
					}
				case 3: // read any shared counter (any momentary value is fine)
					sys.Load(th, node, shared[o.arg%nShared], &bds[node], stats.BucketMemWait)
				case 4: // prefetch; must never change semantics
					sys.Prefetch(node, shared[o.arg%nShared], o.arg%2 == 0)
				}
				th.Sleep(clk.Cycles(int64(1 + o.arg%5)))
			}
			sys.Fence(th, node, &bds[node], stats.BucketMemWait)
		})
	}
	eng.SetEventLimit(20_000_000)
	eng.Run()

	if err := sys.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	for c, want := range wantCount {
		if got := st.Peek(shared[c]); got != float64(want) {
			t.Errorf("counter %d = %v, want %d", c, got, want)
		}
	}
	for node, want := range lastWrite {
		if want == 0 {
			continue
		}
		if got := st.Peek(private[node]); got != want {
			t.Errorf("private[%d] = %v, want %v", node, got, want)
		}
	}
}
