package cache

import (
	"testing"
	"testing/quick"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

func newTestCache(t *testing.T, size, assoc, pages int) (*Cache, *Validity) {
	t.Helper()
	v := NewValidity(pages, 1)
	return New("test", size, assoc, v), v
}

func TestCacheMissThenHit(t *testing.T) {
	c, v := newTestCache(t, 4096, 2, 16)
	l := mem.GPage(3).Line(5)
	if c.Lookup(l) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(l, v.LineVersion(l))
	if !c.Lookup(l) {
		t.Fatal("miss after insert")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits %d misses, want 1/1", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	v := NewValidity(1024, 1)
	c := New("tiny", 2*mem.LineSize, 2, v) // one set, two ways
	sets := c.Sets()
	if sets != 1 {
		t.Fatalf("sets = %d, want 1", sets)
	}
	a, b, d := mem.GLine(0), mem.GLine(1), mem.GLine(2)
	c.Insert(a, 0)
	c.Insert(b, 0)
	if !c.Lookup(a) { // a becomes MRU; b is LRU
		t.Fatal("a missing")
	}
	c.Insert(d, 0) // evicts b
	if c.Contains(b) {
		t.Fatal("LRU way b survived eviction")
	}
	if !c.Contains(a) || !c.Contains(d) {
		t.Fatal("MRU way evicted instead of LRU")
	}
}

func TestCacheLookupMovesHitToMRU(t *testing.T) {
	v := NewValidity(1024, 1)
	c := New("tiny", 3*mem.LineSize, 3, v) // one set, three ways
	a, b, d, x := mem.GLine(0), mem.GLine(1), mem.GLine(2), mem.GLine(3)
	c.Insert(a, 0)
	c.Insert(b, 0)
	c.Insert(d, 0) // order MRU→LRU: d, b, a
	if !c.Lookup(a) {
		t.Fatal("a missing")
	}
	// Now a, d, b: inserting x must evict b (the LRU), not a or d.
	c.Insert(x, 0)
	if c.Contains(b) {
		t.Fatal("LRU way b survived eviction after Lookup reordered the set")
	}
	if !c.Contains(a) || !c.Contains(d) || !c.Contains(x) {
		t.Fatal("Lookup did not move the hit to MRU")
	}
}

func TestCacheInsertRefreshMovesToMRU(t *testing.T) {
	v := NewValidity(1024, 1)
	c := New("tiny", 2*mem.LineSize, 2, v) // one set, two ways
	a, b, x := mem.GLine(0), mem.GLine(1), mem.GLine(2)
	c.Insert(a, 0)
	c.Insert(b, 0) // b MRU, a LRU
	c.Insert(a, 0) // refresh in place: a back to MRU
	c.Insert(x, 0) // must evict b
	if c.Contains(b) {
		t.Fatal("re-inserted way a stayed LRU; b should have been evicted")
	}
	if !c.Contains(a) || !c.Contains(x) {
		t.Fatal("refresh-in-place insert lost a live line")
	}
}

func TestCacheInsertPrefersInvalidatedWay(t *testing.T) {
	v := NewValidity(1024, 1)
	c := New("tiny", 2*mem.LineSize, 2, v) // one set, two ways
	a, b, x := mem.GLine(0), mem.GLine(1), mem.GLine(2)
	c.Insert(a, v.LineVersion(a))
	c.Insert(b, v.LineVersion(b)) // b MRU, a LRU... then b goes stale:
	v.BumpLine(b)
	if c.Lookup(b) {
		t.Fatal("stale copy hit")
	}
	// b's way is now invalid. Inserting x must reuse it rather than evict
	// the live (and LRU) line a.
	c.Insert(x, v.LineVersion(x))
	if !c.Contains(a) {
		t.Fatal("live LRU line evicted while an invalidated way was free")
	}
	if !c.Contains(x) {
		t.Fatal("inserted line missing")
	}
}

// The per-reference cache operations sit inside the simulator's hot path;
// they must not allocate.
func TestCacheOpsZeroAllocs(t *testing.T) {
	v := NewValidity(64, 1)
	c := New("hot", 4096, 2, v)
	lines := make([]mem.GLine, 64)
	for i := range lines {
		lines[i] = mem.GPage(i % 8).Line(i % mem.LinesPerPage)
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		l := lines[i%len(lines)]
		if !c.Lookup(l) {
			c.Insert(l, v.LineVersion(l))
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Lookup/Insert allocate %.2f per access, want 0", avg)
	}
}

// BenchmarkCacheLookupInsert reports the per-access cost of the cache model
// with ReportAllocs pinning both operations at zero allocations.
func BenchmarkCacheLookupInsert(b *testing.B) {
	v := NewValidity(64, 1)
	c := New("hot", 4096, 2, v)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := mem.GPage(i % 8).Line(i % mem.LinesPerPage)
		if !c.Lookup(l) {
			c.Insert(l, v.LineVersion(l))
		}
	}
}

func TestCacheWriteInvalidatesOtherCopies(t *testing.T) {
	v := NewValidity(16, 1)
	c1 := New("cpu0", 4096, 2, v)
	c2 := New("cpu1", 4096, 2, v)
	l := mem.GPage(1).Line(0)
	c1.Insert(l, v.LineVersion(l))
	c2.Insert(l, v.LineVersion(l))
	// CPU1 writes: bumps the version and refreshes its own copy.
	nv := v.BumpLine(l)
	c2.Insert(l, nv)
	if c1.Lookup(l) {
		t.Fatal("stale copy hit after remote write")
	}
	if !c2.Lookup(l) {
		t.Fatal("writer's own copy did not stay valid")
	}
	_, _, stale := c1.Stats()
	if stale != 1 {
		t.Fatalf("stale misses = %d, want 1", stale)
	}
}

func TestCachePageEpochInvalidatesWholePage(t *testing.T) {
	v := NewValidity(16, 1)
	c := New("cpu0", 64*1024, 2, v)
	p := mem.GPage(2)
	for i := 0; i < mem.LinesPerPage; i++ {
		c.Insert(p.Line(i), 0)
	}
	other := mem.GPage(3).Line(0)
	c.Insert(other, 0)
	v.BumpPage(p) // migration
	for i := 0; i < mem.LinesPerPage; i++ {
		if c.Lookup(p.Line(i)) {
			t.Fatalf("line %d survived page epoch bump", i)
		}
	}
	if !c.Lookup(other) {
		t.Fatal("unrelated page was invalidated")
	}
}

func TestCacheFlush(t *testing.T) {
	c, _ := newTestCache(t, 4096, 2, 16)
	l := mem.GPage(0).Line(0)
	c.Insert(l, 0)
	c.Flush()
	if c.Contains(l) {
		t.Fatal("line survived flush")
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for size not divisible by assoc*line")
		}
	}()
	New("bad", 3*mem.LineSize, 2, NewValidity(1, 1))
}

func TestHierarchyLevels(t *testing.T) {
	v := NewValidity(64, 1)
	h := NewHierarchy(0, 2048, 2, 8192, 2, v)
	l := mem.GPage(1).Line(1)
	if got := h.Access(l, mem.DataRead); got != Miss {
		t.Fatalf("first access = %v, want memory miss", got)
	}
	if got := h.Access(l, mem.DataRead); got != HitL1 {
		t.Fatalf("second access = %v, want L1 hit", got)
	}
	// Evict l from L1 (8 sets) with lines in the same L1 set but distinct
	// L2 sets (32 sets): line indices 9, 17, 25 of the same page.
	for _, idx := range []int{9, 17, 25} {
		h.Access(mem.GPage(1).Line(idx), mem.DataRead)
	}
	if got := h.Access(l, mem.DataRead); got != HitL2 {
		t.Fatalf("access after L1 pressure = %v, want L2 hit", got)
	}
}

func TestHierarchySplitIAndD(t *testing.T) {
	v := NewValidity(64, 1)
	h := NewHierarchy(0, 2048, 2, 8192, 2, v)
	l := mem.GPage(1).Line(0)
	h.Access(l, mem.InstrFetch)
	// The same line as data misses L1D (split caches) but hits L2.
	if got := h.Access(l, mem.DataRead); got != HitL2 {
		t.Fatalf("data access after ifetch = %v, want L2 hit", got)
	}
}

func TestHierarchyWriteInvalidatesPeer(t *testing.T) {
	v := NewValidity(64, 1)
	h0 := NewHierarchy(0, 2048, 2, 8192, 2, v)
	h1 := NewHierarchy(1, 2048, 2, 8192, 2, v)
	l := mem.GPage(5).Line(3)
	h0.Access(l, mem.DataRead)
	h1.Access(l, mem.DataRead)
	if h0.Access(l, mem.DataRead) != HitL1 {
		t.Fatal("expected warm hit on cpu0")
	}
	h1.Access(l, mem.DataWrite) // invalidates cpu0's copy
	if got := h0.Access(l, mem.DataRead); got != Miss {
		t.Fatalf("cpu0 after cpu1 write = %v, want miss", got)
	}
	if got := h1.Access(l, mem.DataRead); got != HitL1 {
		t.Fatalf("writer's copy = %v, want L1 hit", got)
	}
}

func TestHierarchyWriteHitKeepsOwnCopyValid(t *testing.T) {
	v := NewValidity(64, 1)
	h := NewHierarchy(0, 2048, 2, 8192, 2, v)
	l := mem.GPage(4).Line(0)
	h.Access(l, mem.DataWrite)
	if got := h.Access(l, mem.DataWrite); got != HitL1 {
		t.Fatalf("repeat write = %v, want L1 hit", got)
	}
	if got := h.Access(l, mem.DataRead); got != HitL1 {
		t.Fatalf("read after writes = %v, want L1 hit", got)
	}
}

// Property: an entry's recorded version never exceeds the global version,
// and Lookup only hits when stamps are current.
func TestCacheValidityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		v := NewValidity(8, 1)
		c := New("prop", 4096, 2, v)
		for i := 0; i < 500; i++ {
			l := mem.GPage(r.Intn(8)).Line(r.Intn(mem.LinesPerPage))
			switch r.Intn(4) {
			case 0:
				c.Insert(l, v.LineVersion(l))
			case 1:
				nv := v.BumpLine(l)
				c.Insert(l, nv)
			case 2:
				v.BumpPage(l.Page())
			case 3:
				if c.Lookup(l) {
					// A hit must imply currently-valid stamps.
					if !c.Contains(l) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHitMRUMatchesLookup drives twin caches over one Validity with a random
// stream of lookups, fills, and line and page bumps. The probe twin answers
// each lookup with HitMRU and falls back to Lookup on a miss, as the fast
// read path does; the other always uses Lookup. Answers, statistics and
// every way must agree after each operation, and a probe miss must change
// nothing.
func TestHitMRUMatchesLookup(t *testing.T) {
	r := sim.NewRand(11)
	v := NewValidity(6, 1)
	// 4 sets of 2 ways: lines of the 6 pages collide often.
	probe, full := New("probe", 8*mem.LineSize, 2, v), New("full", 8*mem.LineSize, 2, v)
	for i := 0; i < 200000; i++ {
		l := mem.GPage(r.Intn(6)).Line(r.Intn(4))
		switch op := r.Intn(20); {
		case op < 11:
			before := append([]entry(nil), probe.ways...)
			bh, bm, bs := probe.Stats()
			hit := probe.HitMRU(l)
			if !hit {
				if h, m, s := probe.Stats(); h != bh || m != bm || s != bs || !sameWays(probe.ways, before) {
					t.Fatalf("op %d: a HitMRU miss changed the cache", i)
				}
				hit = probe.Lookup(l)
			}
			if want := full.Lookup(l); hit != want {
				t.Fatalf("op %d: probe answered %v, Lookup %v", i, hit, want)
			}
		case op < 16:
			ver := v.LineVersion(l)
			probe.Insert(l, ver)
			full.Insert(l, ver)
		case op < 19:
			v.BumpLine(l)
		default:
			v.BumpPage(l.Page())
		}
		ph, pm, ps := probe.Stats()
		fh, fm, fs := full.Stats()
		if ph != fh || pm != fm || ps != fs {
			t.Fatalf("op %d: stats %d/%d/%d, want %d/%d/%d", i, ph, pm, ps, fh, fm, fs)
		}
		if !sameWays(probe.ways, full.ways) {
			t.Fatalf("op %d: ways differ", i)
		}
	}
	if h, _, s := full.Stats(); h == 0 || s == 0 {
		t.Fatalf("the stream produced %d hits and %d stale misses; want both", h, s)
	}
}

func sameWays(a, b []entry) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
