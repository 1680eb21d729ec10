package refcpu

import "fmt"

// CacheParams describes one level of a set-associative cache.
type CacheParams struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// cache is a set-associative LRU cache over physical line addresses.
type cache struct {
	p        CacheParams
	lineBits uint
	setMask  uint64
	ways     []way   // sets*p.Ways entries, set-major
	mru      []int32 // per set: index into ways of its most recent way
	clock    uint64

	Hits, Misses uint64
}

// way is one cache line slot: the line number it holds and the clock
// stamp of its last use. Stamps start at 1, so age 0 marks an invalid
// (never filled) way.
type way struct {
	tag, age uint64
}

func newCache(p CacheParams) *cache {
	if p.LineBytes <= 0 || p.SizeBytes <= 0 || p.Ways <= 0 {
		panic(fmt.Sprintf("refcpu: invalid cache params %+v", p))
	}
	lines := p.SizeBytes / p.LineBytes
	sets := lines / p.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("refcpu: cache must have a power-of-two set count, got %d", sets))
	}
	lb := uint(0)
	for 1<<lb < p.LineBytes {
		lb++
	}
	if 1<<lb != p.LineBytes {
		panic("refcpu: line size must be a power of two")
	}
	mru := make([]int32, sets)
	for s := range mru {
		mru[s] = int32(s * p.Ways)
	}
	return &cache{
		p:        p,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		ways:     make([]way, sets*p.Ways),
		mru:      mru,
	}
}

// access looks up the line containing addr, filling it on a miss, and
// reports whether the access hit. A line occupies at most one way of its
// set (lines are filled only on a miss), so the set's most recent way is
// checked first and a hit there skips the scan without changing the
// outcome. On a miss the victim is the set's last invalid way, else its
// least recently used one.
func (c *cache) access(addr uint64) bool {
	c.clock++
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	if w := &c.ways[c.mru[set]]; w.age != 0 && w.tag == line {
		w.age = c.clock
		c.Hits++
		return true
	}
	base := set * c.p.Ways
	ws := c.ways[base : base+c.p.Ways]
	victim := 0
	oldest := ws[0].age
	for i := range ws {
		w := &ws[i]
		if w.age != 0 && w.tag == line {
			w.age = c.clock
			c.mru[set] = int32(base + i)
			c.Hits++
			return true
		}
		// Live stamps are unique, so <= picks the least recent live way
		// and, once an invalid way (age 0) is seen, the last invalid one.
		if w.age <= oldest {
			victim = i
			oldest = w.age
		}
	}
	ws[victim] = way{tag: line, age: c.clock}
	c.mru[set] = int32(base + victim)
	c.Misses++
	return false
}

// Hierarchy is three levels of cache in front of DRAM. An access probes
// L1, L2 and L3 in turn and stops at the first hit; each level it missed
// in fills the line. Every level evicts on its own: an L3 eviction never
// invalidates the line in L1 or L2, so the hierarchy is not inclusive.
type Hierarchy struct {
	L1, L2, L3 *cache
}

// NewHierarchy builds a hierarchy from the three level parameter sets.
func NewHierarchy(l1, l2, l3 CacheParams) *Hierarchy {
	return &Hierarchy{L1: newCache(l1), L2: newCache(l2), L3: newCache(l3)}
}

// Level identifies where an access was served.
type Level int

// Cache service levels, nearest first.
const (
	ServedL1 Level = iota
	ServedL2
	ServedL3
	ServedMem
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case ServedL1:
		return "L1"
	case ServedL2:
		return "L2"
	case ServedL3:
		return "L3"
	case ServedMem:
		return "MEM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Access walks an n-byte access at addr through the hierarchy and returns
// the deepest level that had to serve any of its lines.
func (h *Hierarchy) Access(addr uint32, n int) Level {
	if n <= 0 {
		n = 1
	}
	worst := ServedL1
	lb := h.L1.lineBits
	first := uint64(addr) >> lb
	last := (uint64(addr) + uint64(n) - 1) >> lb
	for line := first; line <= last; line++ {
		a := line << lb
		var served Level
		switch {
		case h.L1.access(a):
			served = ServedL1
		case h.L2.access(a):
			served = ServedL2
		case h.L3.access(a):
			served = ServedL3
		default:
			served = ServedMem
		}
		if served > worst {
			worst = served
		}
	}
	return worst
}
