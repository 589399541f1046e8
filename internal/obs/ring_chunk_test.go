package obs

import (
	"runtime"
	"testing"
)

// TestRingAllocatesAsItFills: a ring allocates its capacity a chunk at
// a time as entries arrive, so a 128k-entry ring that records 10
// entries holds one chunk, not 128k slots.
func TestRingAllocatesAsItFills(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRing[int64](1 << 17)
	for i := range 10 {
		r.Add(int64(i))
	}
	runtime.ReadMemStats(&after)
	if len(r.chunks) != 1 || len(r.chunks[0]) != ringChunk {
		t.Fatalf("10 entries in a ring of %d hold %d chunks", 1<<17, len(r.chunks))
	}
	// One chunk is 32 KiB; the ring, its chunk list and the test's own
	// bookkeeping fit in a second.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*ringChunk*8); got > limit {
		t.Errorf("10 entries in a ring of %d allocated %d bytes, want at most %d", 1<<17, got, limit)
	}
	runtime.KeepAlive(r)
}
