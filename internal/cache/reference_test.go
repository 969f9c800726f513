package cache

import (
	"testing"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// refCounters are the lazy validity counters the eager fabric replaced: one
// version per line and one epoch per page, shared by every reference cache
// of a machine. Both only grow.
type refCounters struct {
	line map[mem.GLine]uint32
	page map[mem.GPage]uint32
}

func newRefCounters() *refCounters {
	return &refCounters{line: map[mem.GLine]uint32{}, page: map[mem.GPage]uint32{}}
}

func (c *refCounters) bumpLine(l mem.GLine) { c.line[l]++ }
func (c *refCounters) bumpPage(p mem.GPage) { c.page[p]++ }

// stamp is the pair a copy of l filled now carries.
func (c *refCounters) stamp(l mem.GLine) [2]uint32 {
	return [2]uint32{c.line[l], c.page[l.Page()]}
}

// refCache is an obviously-correct (slow) set-associative LRU model used to
// differentially test the production cache: per set, an ordered slice of
// tags, MRU first, each with its two fill-time stamps. A copy is valid
// exactly when both stamps are still current.
type refCache struct {
	sets                int
	assoc               int
	ways                [][]mem.GLine
	ctr                 *refCounters
	stamp               map[mem.GLine][2]uint32 // version, epoch at fill time
	hits, misses, stale uint64
}

func newRefCache(size, assoc int, ctr *refCounters) *refCache {
	lines := size / mem.LineSize
	return &refCache{
		sets:  lines / assoc,
		assoc: assoc,
		ways:  make([][]mem.GLine, lines/assoc),
		ctr:   ctr,
		stamp: map[mem.GLine][2]uint32{},
	}
}

func (r *refCache) set(l mem.GLine) int { return int(uint64(l) % uint64(r.sets)) }

func (r *refCache) lookup(l mem.GLine) bool {
	s := r.set(l)
	for i, tag := range r.ways[s] {
		if tag != l {
			continue
		}
		if r.stamp[l] != r.ctr.stamp(l) {
			// Stale: drop and miss.
			r.ways[s] = append(r.ways[s][:i], r.ways[s][i+1:]...)
			r.misses++
			r.stale++
			return false
		}
		// Move to MRU.
		r.ways[s] = append([]mem.GLine{l}, append(r.ways[s][:i], r.ways[s][i+1:]...)...)
		r.hits++
		return true
	}
	r.misses++
	return false
}

func (r *refCache) insert(l mem.GLine) {
	s := r.set(l)
	for i, tag := range r.ways[s] {
		if tag == l {
			r.ways[s] = append(r.ways[s][:i], r.ways[s][i+1:]...)
			break
		}
	}
	r.ways[s] = append([]mem.GLine{l}, r.ways[s]...)
	if len(r.ways[s]) > r.assoc {
		r.ways[s] = r.ways[s][:r.assoc]
	}
	r.stamp[l] = r.ctr.stamp(l)
}

func (r *refCache) contains(l mem.GLine) bool {
	for _, tag := range r.ways[r.set(l)] {
		if tag == l {
			return r.stamp[l] == r.ctr.stamp(l)
		}
	}
	return false
}

// TestCacheMatchesReferenceModel drives the production cache and the
// reference model with identical random operation streams and requires
// identical hit/miss behaviour throughout.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRand(seed)
		const pages = 16
		val, ctr := NewValidity(pages, 1), newRefCounters()
		c := New("dut", 4096, 2, val)
		ref := newRefCache(4096, 2, ctr)
		for i := 0; i < 20000; i++ {
			l := mem.GPage(rng.Intn(pages)).Line(rng.Intn(mem.LinesPerPage))
			switch rng.Intn(5) {
			case 0: // read fill path
				got := c.Lookup(l)
				want := ref.lookup(l)
				if got != want {
					t.Fatalf("seed %d op %d: lookup(%d) = %v, reference %v", seed, i, l, got, want)
				}
				if !got {
					c.Insert(l)
					ref.insert(l)
				}
			case 1: // write (bump + refresh own copy)
				val.BumpLine(l)
				ctr.bumpLine(l)
				c.Insert(l)
				ref.insert(l)
			case 2: // remote write invalidates everyone
				val.BumpLine(l)
				ctr.bumpLine(l)
			case 3: // page migration/collapse
				val.BumpPage(l.Page())
				ctr.bumpPage(l.Page())
			case 4: // pure probe
				got := c.Lookup(l)
				want := ref.lookup(l)
				if got != want {
					t.Fatalf("seed %d op %d: probe(%d) = %v, reference %v", seed, i, l, got, want)
				}
			}
		}
	}
}

// refHierarchy is Hierarchy.Access over reference caches: a write bumps the
// line's version and refills the writer's copies with the new stamp.
type refHierarchy struct {
	l1i, l1d, l2 *refCache
	ctr          *refCounters
}

func (h *refHierarchy) access(l mem.GLine, kind mem.AccessKind) Level {
	l1 := h.l1d
	if kind.IsInstr() {
		l1 = h.l1i
	}
	if l1.lookup(l) {
		if kind.IsWrite() {
			h.ctr.bumpLine(l)
			l1.insert(l)
			h.l2.insert(l)
		}
		return HitL1
	}
	if h.l2.lookup(l) {
		if kind.IsWrite() {
			h.ctr.bumpLine(l)
			h.l2.insert(l)
		}
		l1.insert(l)
		return HitL2
	}
	if kind.IsWrite() {
		h.ctr.bumpLine(l)
	}
	h.l2.insert(l)
	l1.insert(l)
	return Miss
}

// TestHierarchiesMatchReferenceModel runs three CPUs' hierarchies on one
// Validity against three reference hierarchies on one set of two-stamp
// counters: random reads, fetches and writes from each CPU, and random page
// bumps. Every access must be satisfied at the same level, and after each
// operation every cache must agree with its reference on the statistics
// and on which lines it holds a valid copy of.
func TestHierarchiesMatchReferenceModel(t *testing.T) {
	const (
		cpus  = 3
		pages = 4
		lines = 8 // per page, so the 32 lines collide in the tiny caches
		l1    = 4 * mem.LineSize
		l2    = 16 * mem.LineSize
	)
	kinds := []mem.AccessKind{mem.DataRead, mem.InstrFetch, mem.DataWrite}
	// The first and last four lines of a page: a page bump must reach both
	// ends, and they fill all 8 sets of the L2.
	line := func(p mem.GPage, i int) mem.GLine {
		if i >= lines/2 {
			i += mem.LinesPerPage - lines
		}
		return p.Line(i)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRand(seed)
		val, ctr := NewValidity(pages, 1), newRefCounters()
		var dut [cpus]*Hierarchy
		var ref [cpus]*refHierarchy
		for i := range dut {
			dut[i] = NewHierarchy(i, l1, 2, l2, 2, val)
			ref[i] = &refHierarchy{newRefCache(l1, 2, ctr), newRefCache(l1, 2, ctr), newRefCache(l2, 2, ctr), ctr}
		}
		for op := 0; op < 50000; op++ {
			l := line(mem.GPage(rng.Intn(pages)), rng.Intn(lines))
			if rng.Intn(50) == 0 {
				val.BumpPage(l.Page())
				ctr.bumpPage(l.Page())
			} else {
				cpu, kind := rng.Intn(cpus), kinds[rng.Intn(len(kinds))]
				if got, want := dut[cpu].Access(l, kind), ref[cpu].access(l, kind); got != want {
					t.Fatalf("seed %d op %d: cpu %d %v of line %d satisfied at %v, reference %v",
						seed, op, cpu, kind, l, got, want)
				}
			}
			for cpu := range dut {
				d, r := dut[cpu], ref[cpu]
				for _, pair := range [...]struct {
					c *Cache
					r *refCache
				}{{d.L1I, r.l1i}, {d.L1D, r.l1d}, {d.L2, r.l2}} {
					h, m, s := pair.c.Stats()
					if h != pair.r.hits || m != pair.r.misses || s != pair.r.stale {
						t.Fatalf("seed %d op %d: %s stats %d/%d/%d, reference %d/%d/%d",
							seed, op, pair.c.name, h, m, s, pair.r.hits, pair.r.misses, pair.r.stale)
					}
					for p := mem.GPage(0); p < pages; p++ {
						for i := 0; i < lines; i++ {
							if got, want := pair.c.Contains(line(p, i)), pair.r.contains(line(p, i)); got != want {
								t.Fatalf("seed %d op %d: %s holds line %d: %v, reference %v",
									seed, op, pair.c.name, line(p, i), got, want)
							}
						}
					}
				}
			}
		}
		var stale uint64
		for _, c := range []*Cache{dut[0].L1I, dut[0].L1D, dut[0].L2} {
			_, _, s := c.Stats()
			stale += s
		}
		if stale == 0 {
			t.Fatalf("seed %d: the stream produced no stale miss", seed)
		}
	}
}
