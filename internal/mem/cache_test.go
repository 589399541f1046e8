package mem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func newTestCache() *cache {
	p := DefaultParams()
	p.CacheLines = 64
	p.PrefetchEntries = 4
	return newCache(p)
}

func TestCacheFillLookup(t *testing.T) {
	c := newTestCache()
	if c.lookup(10) != lineInvalid {
		t.Error("empty cache returned a hit")
	}
	victim, dirty, _ := c.fill(10, lineShared, 0)
	if victim != NilAddr || dirty {
		t.Errorf("fill into empty frame evicted %d dirty=%v", victim, dirty)
	}
	if c.lookup(10) != lineShared {
		t.Error("filled line not found")
	}
}

func TestCacheConflictEviction(t *testing.T) {
	c := newTestCache() // 64 lines: 10 and 74 conflict
	c.fill(10, lineModified, 0)
	victim, dirty, _ := c.fill(74, lineShared, 0)
	if victim != 10 || !dirty {
		t.Errorf("conflict fill: victim=%d dirty=%v, want 10 dirty", victim, dirty)
	}
	if c.lookup(10) != lineInvalid {
		t.Error("evicted line still present")
	}
	if c.lookup(74) != lineShared {
		t.Error("new line absent")
	}
}

func TestCacheRefillSameLineNoVictim(t *testing.T) {
	c := newTestCache()
	c.fill(10, lineShared, 0)
	victim, dirty, _ := c.fill(10, lineModified, 0)
	if victim != NilAddr || dirty {
		t.Errorf("same-line refill produced victim %d", victim)
	}
	if c.lookup(10) != lineModified {
		t.Error("state not upgraded")
	}
}

func TestCacheInvalidateAndDowngrade(t *testing.T) {
	c := newTestCache()
	c.fill(5, lineModified, 0)
	c.downgrade(5)
	if c.lookup(5) != lineShared {
		t.Error("downgrade failed")
	}
	if wasDirty := c.invalidate(5); wasDirty {
		t.Error("downgraded line reported dirty on invalidate")
	}
	if c.lookup(5) != lineInvalid {
		t.Error("invalidate failed")
	}
	// Invalidating an absent line is a no-op.
	if c.invalidate(99) {
		t.Error("absent line reported dirty")
	}
}

func TestPrefetchBufferFIFO(t *testing.T) {
	c := newTestCache() // 4 pf entries
	for i := Addr(0); i < 4; i++ {
		if ev, _, _ := c.pfFill(100+i, lineShared, 0); ev != NilAddr {
			t.Fatalf("early eviction of %d", ev)
		}
	}
	ev, dirty, _ := c.pfFill(200, lineModified, 0)
	if ev != 100 || dirty {
		t.Errorf("FIFO eviction = %d dirty=%v, want 100 clean", ev, dirty)
	}
	if c.pfLookup(100) >= 0 {
		t.Error("evicted pf entry still found")
	}
	if i := c.pfLookup(200); i < 0 || c.pf[i].state != lineModified {
		t.Error("new pf entry missing or wrong state")
	}
}

func TestPrefetchBufferTakeAndInvalidate(t *testing.T) {
	c := newTestCache()
	c.pfFill(42, lineModified, 0)
	i := c.pfLookup(42)
	if i < 0 {
		t.Fatal("pf entry missing")
	}
	if st, _ := c.pfTake(i); st != lineModified {
		t.Errorf("pfTake state = %d", st)
	}
	if c.pfLookup(42) >= 0 {
		t.Error("taken entry still present")
	}
	c.pfFill(43, lineModified, 0)
	if !c.invalidate(43) {
		t.Error("invalidate of modified pf entry should report dirty")
	}
	if c.pfLookup(43) >= 0 {
		t.Error("invalidated pf entry still present")
	}
}

func TestCacheHasCoversBoth(t *testing.T) {
	c := newTestCache()
	c.fill(1, lineShared, 0)
	c.pfFill(2, lineShared, 0)
	if !c.has(1) || !c.has(2) || c.has(3) {
		t.Error("has() wrong")
	}
}

// Property: after any sequence of fills, lookup(line) hits iff line was
// the most recent fill of its frame.
func TestCacheDirectMappedProperty(t *testing.T) {
	prop := func(lines []uint8) bool {
		c := newTestCache()
		last := map[Addr]Addr{} // frame -> line
		for _, l := range lines {
			line := Addr(l)
			c.fill(line, lineShared, 0)
			last[line%64] = line
		}
		for frame, line := range last {
			if c.lookup(line) == lineInvalid {
				return false
			}
			_ = frame
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSharerSetOps(t *testing.T) {
	var s sharerSet
	s.add(3)
	s.add(17)
	s.add(3)
	if s.count() != 2 || !s.has(3) || !s.has(17) || s.has(4) {
		t.Errorf("set ops wrong: %b", s)
	}
	var visited []int
	s.forEach(func(n int) { visited = append(visited, n) })
	if len(visited) != 2 || visited[0] != 3 || visited[1] != 17 {
		t.Errorf("forEach = %v", visited)
	}
	s.remove(3)
	if s.has(3) || s.count() != 1 {
		t.Error("remove failed")
	}
}

// allocatedPages counts the cache's allocated frame pages.
func allocatedPages(c *cache) int {
	n := 0
	for _, pg := range c.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

func TestCacheUnfilledPageReadsInvalid(t *testing.T) {
	c := newCache(DefaultParams())
	for _, line := range []Addr{0, 63, 64, 4095, 4096 + 100} {
		if c.lookup(line) != lineInvalid || c.has(line) {
			t.Errorf("line %d present in an unfilled cache", line)
		}
		c.setState(line, lineModified)
		c.downgrade(line)
		if c.invalidate(line) {
			t.Errorf("invalidating absent line %d reported dirty", line)
		}
		if c.lookup(line) != lineInvalid {
			t.Errorf("setState made absent line %d present", line)
		}
	}
	if c.pages != nil {
		t.Errorf("reads and state changes allocated %d page slots", len(c.pages))
	}
}

func TestCacheFirstFillAllocatesOnePage(t *testing.T) {
	c := newCache(DefaultParams()) // 4096 lines: 64 pages
	c.fill(130, lineShared, 0)     // frame 130, page 2
	if len(c.pages) != 64 || allocatedPages(c) != 1 || c.pages[2] == nil {
		t.Fatalf("after one fill: %d page slots, %d allocated, page 2 allocated=%v; want 64, 1, true",
			len(c.pages), allocatedPages(c), c.pages[2] != nil)
	}
	c.fill(131, lineShared, 0) // same page
	c.fill(4096+130, lineModified, 0)
	if allocatedPages(c) != 1 {
		t.Errorf("fills into an allocated page allocated %d pages in all", allocatedPages(c))
	}
	if c.lookup(131) != lineShared || c.lookup(4096+130) != lineModified || c.lookup(130) != lineInvalid {
		t.Error("lookups in the allocated page wrong")
	}
	// A page next to the allocated one is still absent.
	if c.lookup(129) != lineInvalid || c.pages[1] != nil {
		t.Error("neighbouring page present")
	}
}

func TestCacheOddSizeLastPage(t *testing.T) {
	p := DefaultParams()
	p.CacheLines = 100 // two pages, the second one partly used
	c := newCache(p)
	if v, _, _ := c.fill(99, lineModified, 7); v != NilAddr {
		t.Fatalf("fill into empty frame evicted %d", v)
	}
	if len(c.pages) != 2 || c.pages[0] != nil || c.pages[1] == nil {
		t.Fatalf("line 99 should allocate only page 1 of 2: %d slots, page 0 %v", len(c.pages), c.pages[0] != nil)
	}
	// 199 maps to frame 99 too and evicts the dirty 99.
	v, dirty, gen := c.fill(199, lineShared, 0)
	if v != 99 || !dirty || gen != 7 {
		t.Errorf("conflict fill evicted %d dirty=%v gen=%d, want 99 dirty gen 7", v, dirty, gen)
	}
	if c.lookup(99) != lineInvalid || c.lookup(199) != lineShared {
		t.Error("frame 99 holds the wrong line after eviction")
	}
	// Frame 0 (page 0) is independent.
	c.fill(100, lineShared, 0)
	if c.lookup(100) != lineShared || c.lookup(199) != lineShared || allocatedPages(c) != 2 {
		t.Error("line 100 should fill frame 0 of page 0 without disturbing frame 99")
	}
}

func TestHoldersWalkAllocatedPages(t *testing.T) {
	r := newRig()
	fills := []struct {
		node int
		line Addr
		st   lineState
	}{
		{1, 5, lineShared}, {2, 5, lineShared}, // page 0
		{1, 4095, lineModified},    // last frame of the last page
		{3, 4096 + 64, lineShared}, // page 1
		{3, 2000, lineShared},      // page 31
	}
	want := map[Addr][]holder{}
	for _, f := range fills {
		r.sys.nodes[f.node].cache.fill(f.line, f.st, 0)
		want[f.line] = append(want[f.line], holder{node: f.node, st: f.st})
	}
	r.sys.nodes[4].cache.pfFill(77, lineShared, 0)
	want[77] = []holder{{node: 4, st: lineShared}}
	got := r.sys.holders()
	if len(got) != len(want) {
		t.Fatalf("holders found %d lines, want %d: %v", len(got), len(want), got)
	}
	for line, hs := range want {
		if fmt.Sprint(got[line]) != fmt.Sprint(hs) {
			t.Errorf("line %d holders %v, want %v", line, got[line], hs)
		}
	}
	// A violation in the last page is still seen.
	r.sys.nodes[2].cache.fill(4095, lineModified, 0)
	if err := r.sys.CheckInvariants(false); err == nil || !strings.Contains(err.Error(), "line 4095 has 2 Modified holders") {
		t.Errorf("double Modified in the last page: %v", err)
	}
}
