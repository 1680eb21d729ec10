package refcpu

import (
	"math/rand"
	"testing"
)

// refLRU is the textbook set-associative LRU cache the packed cache must
// agree with: each set is a list of line numbers, most recent first, so a
// hit moves its line to the front and a miss drops the last one when the
// set is full.
type refLRU struct {
	ways     int
	lineBits uint
	setMask  uint64
	sets     [][]uint64

	hits, misses uint64
}

func newRefLRU(p CacheParams) *refLRU {
	c := newCache(p) // shares the geometry and its validation
	return &refLRU{
		ways:     p.Ways,
		lineBits: c.lineBits,
		setMask:  c.setMask,
		sets:     make([][]uint64, c.setMask+1),
	}
}

func (r *refLRU) access(addr uint64) bool {
	line := addr >> r.lineBits
	s := r.sets[line&r.setMask]
	for i, l := range s {
		if l == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			r.hits++
			return true
		}
	}
	if len(s) < r.ways {
		s = append(s, 0)
	}
	copy(s[1:], s)
	s[0] = line
	r.sets[line&r.setMask] = s
	r.misses++
	return false
}

// The i7-M620's L1D and L3 geometries: the 8-way and the 16-way caches
// the Table I runs walk on every load and store.
var (
	geomL1 = CacheParams{SizeBytes: 32 * 1024, Ways: 8, LineBytes: 64}
	geomL3 = CacheParams{SizeBytes: 4 * 1024 * 1024, Ways: 16, LineBytes: 64}
)

// streamTrace interleaves three 8-byte streams — load a[i], load b[i],
// store c[i], the shape of an FFBP merge — each spanning half the cache,
// so the three together overflow it, and walks them twice.
func streamTrace(p CacheParams) []uint64 {
	span := uint64(p.SizeBytes / 2)
	a, b, c := uint64(0x10000000), uint64(0x10000000)+span+8*64, uint64(0x30000000)+24
	var tr []uint64
	for pass := 0; pass < 2; pass++ {
		for off := uint64(0); off < span; off += 8 {
			tr = append(tr, a+off, b+off, c+off)
		}
	}
	return tr
}

// randomTrace draws uniform random addresses over four times the cache's
// capacity.
func randomTrace(p CacheParams, seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]uint64, n)
	for i := range tr {
		tr[i] = uint64(rng.Int63n(4 * int64(p.SizeBytes)))
	}
	return tr
}

// thrashTrace first warms every set but the last, then cycles ways+1
// lines through set 1 (each access evicts the line the next one needs),
// and ends by touching the last set for the first time and again: a set's
// first access must miss whatever its neighbours hold.
func thrashTrace(p CacheParams) []uint64 {
	sets := uint64(p.SizeBytes / p.LineBytes / p.Ways)
	line := uint64(p.LineBytes)
	var tr []uint64
	for s := uint64(0); s < sets-1; s++ {
		tr = append(tr, s*line)
	}
	for round := 0; round < 50; round++ {
		for k := uint64(0); k <= uint64(p.Ways); k++ {
			tr = append(tr, (1+k*sets)*line+8)
		}
	}
	last := (sets-1)*line + 32*sets*line
	return append(tr, last, last+8)
}

// TestCacheMatchesReferenceLRU drives the packed cache and the reference
// LRU with the same traces and requires the same hit or miss on every
// access and the same final counts.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct {
		name string
		p    CacheParams
	}{{"l1", geomL1}, {"l3", geomL3}} {
		traces := map[string][]uint64{
			"stream": streamTrace(g.p),
			"random": randomTrace(g.p, 17, 200000),
			"thrash": thrashTrace(g.p),
		}
		for name, tr := range traces {
			t.Run(g.name+"/"+name, func(t *testing.T) {
				c, ref := newCache(g.p), newRefLRU(g.p)
				for i, a := range tr {
					if got, want := c.access(a), ref.access(a); got != want {
						t.Fatalf("access %d (%#x): hit=%v, reference hit=%v", i, a, got, want)
					}
				}
				if c.Hits != ref.hits || c.Misses != ref.misses {
					t.Errorf("hits/misses %d/%d, reference %d/%d", c.Hits, c.Misses, ref.hits, ref.misses)
				}
				if c.Hits == 0 || c.Misses == 0 {
					t.Errorf("trace exercises only one outcome: %d hits, %d misses", c.Hits, c.Misses)
				}
			})
		}
	}
}

// benchSink keeps the benchmarked cycle count observable.
var benchSink float64

// BenchmarkHierarchyStream charges the three-stream merge trace (two
// 8-byte loads and one 8-byte store per element) through the i7 model's
// Load and Store; ns/op is the host cost of one element's three accesses.
func BenchmarkHierarchyStream(b *testing.B) {
	cpu := New(I7M620())
	const span = 1 << 20 // bytes per stream: together they fit the L3
	a, bb, c := uint32(0x10000000), uint32(0x10000000+span+8*64), uint32(0x30000000+24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint32(i*8) % span
		cpu.Load(a+off, 8)
		cpu.Load(bb+off, 8)
		cpu.Store(c+off, 8)
	}
	benchSink = cpu.Cycles()
}
