package mem

// Line coherence states at a cache.
type lineState uint8

const (
	lineInvalid lineState = iota
	lineShared
	lineModified
)

// cacheLine is one direct-mapped cache frame.
type cacheLine struct {
	tag   Addr // line number (addr / LineWords); valid only if state != lineInvalid
	state lineState
	gen   uint64 // home's ownership generation for a Modified copy (see dirEntry.modGen)
}

// pfEntry is one prefetch buffer slot.
type pfEntry struct {
	tag   Addr
	state lineState
	gen   uint64 // as cacheLine.gen
	used  bool   // filled
}

// pageLines is the number of frames in one cache page. Frames are
// allocated a page at a time, on the first fill into the page: a run
// touches a few of a node's 64 Alewife pages, so untouched pages cost
// nothing.
const pageLines = 64

// cachePage is one page of direct-mapped frames.
type cachePage [pageLines]cacheLine

// cache models one node's direct-mapped cache plus its software-prefetch
// buffer. It tracks only tags and states; data lives in the Store.
type cache struct {
	// pages holds the frames, frame i in pages[i/pageLines]. The slice
	// and each page are allocated on the first fill into them; a frame
	// in a missing page reads as invalid.
	pages  []*cachePage
	nlines int // frames (Params.CacheLines)
	pf     []pfEntry
	pfNxt  int // FIFO replacement cursor for the prefetch buffer
}

func newCache(p Params) *cache {
	return &cache{nlines: p.CacheLines, pf: make([]pfEntry, p.PrefetchEntries)}
}

func (c *cache) idx(line Addr) int { return int(line % Addr(c.nlines)) }

// resident returns line's frame if it holds line, else nil. A page that
// was never filled holds no line.
func (c *cache) resident(line Addr) *cacheLine {
	i := c.idx(line)
	if p := i / pageLines; p < len(c.pages) && c.pages[p] != nil {
		if fr := &c.pages[p][i%pageLines]; fr.state != lineInvalid && fr.tag == line {
			return fr
		}
	}
	return nil
}

// lookup returns the state of line in the cache proper (not the prefetch
// buffer); lineInvalid if absent.
func (c *cache) lookup(line Addr) lineState {
	if fr := c.resident(line); fr != nil {
		return fr.state
	}
	return lineInvalid
}

// fill installs line with state st and ownership generation gen,
// returning the victim line number, whether the victim was dirty (needs
// write-back), and the victim's generation. A victim of NilAddr means
// the frame was free or held the same line. The first fill into a page
// allocates it.
func (c *cache) fill(line Addr, st lineState, gen uint64) (victim Addr, victimDirty bool, victimGen uint64) {
	i := c.idx(line)
	if c.pages == nil {
		c.pages = make([]*cachePage, (c.nlines+pageLines-1)/pageLines)
	}
	pg := c.pages[i/pageLines]
	if pg == nil {
		pg = new(cachePage)
		c.pages[i/pageLines] = pg
	}
	fr := &pg[i%pageLines]
	victim, victimDirty, victimGen = NilAddr, false, 0
	if fr.state != lineInvalid && fr.tag != line {
		victim = fr.tag
		victimDirty = fr.state == lineModified
		victimGen = fr.gen
	}
	fr.tag = line
	fr.state = st
	fr.gen = gen
	return victim, victimDirty, victimGen
}

// setState updates the state of a resident line; no-op if absent.
func (c *cache) setState(line Addr, st lineState) {
	if fr := c.resident(line); fr != nil {
		fr.state = st
	}
}

// invalidate drops line from the cache and prefetch buffer. It reports
// whether the dropped copy was dirty.
func (c *cache) invalidate(line Addr) (wasDirty bool) {
	if fr := c.resident(line); fr != nil {
		wasDirty = fr.state == lineModified
		fr.state = lineInvalid
	}
	for i := range c.pf {
		if c.pf[i].used && c.pf[i].tag == line {
			if c.pf[i].state == lineModified {
				wasDirty = true
			}
			c.pf[i].used = false
		}
	}
	return wasDirty
}

// downgrade moves a Modified line to Shared (owner keeps a copy);
// no-op if absent.
func (c *cache) downgrade(line Addr) {
	c.setState(line, lineShared)
	for i := range c.pf {
		if c.pf[i].used && c.pf[i].tag == line && c.pf[i].state == lineModified {
			c.pf[i].state = lineShared
		}
	}
}

// pfLookup finds line in the prefetch buffer, returning its slot or -1.
func (c *cache) pfLookup(line Addr) int {
	for i := range c.pf {
		if c.pf[i].used && c.pf[i].tag == line {
			return i
		}
	}
	return -1
}

// pfFill deposits a prefetched line, evicting FIFO. It returns the evicted
// line (NilAddr if the slot was free) and whether the eviction dropped a
// dirty copy. An unused eviction is a "useless prefetch" signal.
func (c *cache) pfFill(line Addr, st lineState, gen uint64) (evicted Addr, evictedDirty bool, evictedGen uint64) {
	if len(c.pf) == 0 {
		return NilAddr, false, 0
	}
	slot := &c.pf[c.pfNxt]
	c.pfNxt = (c.pfNxt + 1) % len(c.pf)
	evicted, evictedDirty, evictedGen = NilAddr, false, 0
	if slot.used {
		evicted = slot.tag
		evictedDirty = slot.state == lineModified
		evictedGen = slot.gen
	}
	slot.tag = line
	slot.state = st
	slot.gen = gen
	slot.used = true
	return evicted, evictedDirty, evictedGen
}

// pfTake removes slot i from the prefetch buffer, returning its state
// and ownership generation.
func (c *cache) pfTake(i int) (lineState, uint64) {
	st, gen := c.pf[i].state, c.pf[i].gen
	c.pf[i].used = false
	return st, gen
}

// has reports whether the line is present in cache or prefetch buffer.
func (c *cache) has(line Addr) bool {
	return c.lookup(line) != lineInvalid || c.pfLookup(line) >= 0
}
