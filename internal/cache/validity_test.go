package cache

import (
	"runtime"
	"testing"

	"ccnuma/internal/mem"
)

// TestValidityAssignKeepsStamps pins the contract the kernel relies on when
// a migration or collapse moves a page's master copy: no cache entry's
// validity verdict depends on where the page lives, so placing a page
// anywhere leaves every cached copy, valid or stale, as it was.
func TestValidityAssignKeepsStamps(t *testing.T) {
	v := NewValidity(8, 4)
	c := New("cpu0", 64*1024, 2, v)
	p, q := mem.GPage(3), mem.GPage(6)
	l, m := p.Line(5), q.Line(5)
	c.Insert(l)
	c.Insert(m)
	v.Assign(p, 1)
	if !c.Contains(l) {
		t.Fatal("placing a page invalidated its cached line")
	}
	v.BumpLine(l)
	v.BumpLine(l)
	v.BumpPage(p)
	v.Assign(p, 2)
	if c.Contains(l) {
		t.Fatal("placing a page revived a stale copy")
	}
	if !c.Contains(m) {
		t.Fatal("bumps of one page invalidated another")
	}
}

// TestValidityParkingPreservesStamps pins the release semantics: a cached
// copy surviving a page's release stays stale, so it can never re-validate
// when the page comes back on a different node, and the first lookup drops
// it as a stale miss.
func TestValidityParkingPreservesStamps(t *testing.T) {
	v := NewValidity(8, 4)
	c := New("cpu0", 64*1024, 2, v)
	p := mem.GPage(2)
	l := p.Line(0)
	v.Assign(p, 3)
	v.BumpLine(l) // a write, then the writer's fill
	c.Insert(l)

	v.BumpPage(p) // ReleasePage's machine-wide invalidation

	// Next residence lands on node 0; the copy stays stale.
	v.Assign(p, 0)
	if c.Contains(l) {
		t.Fatal("stale cache entry re-validated across a release")
	}
	if c.Lookup(l) {
		t.Fatal("stale cache entry hit across a release")
	}
	if _, _, stale := c.Stats(); stale != 1 {
		t.Fatalf("stale misses = %d, want 1", stale)
	}
}

// TestValiditySingleNodeCompat pins the construct-and-bump pattern on a
// one-node machine: invalidation works without any Assign, and a refill
// after a bump is valid again.
func TestValiditySingleNodeCompat(t *testing.T) {
	v := NewValidity(4, 1)
	c := New("cpu0", 4096, 2, v)
	l := mem.GPage(2).Line(7)
	c.Insert(l)
	v.BumpLine(l)
	if c.Contains(l) {
		t.Fatal("copy valid after a write")
	}
	c.Insert(l)
	if !c.Contains(l) {
		t.Fatal("refill after a write is not valid")
	}
	v.BumpPage(2)
	if c.Contains(l) {
		t.Fatal("copy valid after its page was bumped")
	}
}

// TestValidityUnhomedBumps pins the boundary behaviour for a page that was
// never placed on any node of a multi-node machine. The fabric has no
// unhomed state: releasing such a page invalidates its lines like any
// other's, writing one of its lines invalidates that line only, neither
// touches a neighbouring page, and placing the page afterwards revives
// nothing.
func TestValidityUnhomedBumps(t *testing.T) {
	v := NewValidity(4, 2)
	c := New("cpu0", 64*1024, 2, v)
	p := mem.GPage(1)
	fill := func() {
		for _, q := range []mem.GPage{0, 1, 2} {
			for i := 0; i < mem.LinesPerPage; i++ {
				c.Insert(q.Line(i))
			}
		}
	}
	fill()
	v.BumpPage(p)
	for i := 0; i < mem.LinesPerPage; i++ {
		if c.Contains(p.Line(i)) {
			t.Fatalf("release of a never-placed page left line %d valid", i)
		}
	}
	fill()
	v.BumpLine(p.Line(0))
	if c.Contains(p.Line(0)) {
		t.Fatal("write to a never-placed page left its copy valid")
	}
	if !c.Contains(p.Line(mem.LinesPerPage - 1)) {
		t.Fatal("a line write invalidated another line of the same page")
	}
	for _, q := range []mem.GPage{0, 2} {
		if !c.Contains(q.Line(0)) {
			t.Fatalf("bumps on page %d leaked into page %d", p, q)
		}
	}
	v.Assign(p, 1)
	if c.Contains(p.Line(0)) {
		t.Fatal("placing the page revived a stale copy")
	}
}

// TestNewValidityRefusesUntaggableTables pins the bound that lets a cache
// way hold its line as a uint32 tag beside the stale bit and the empty-way
// tag: a machine of 2^31-1 lines or more is refused with a panic, and the
// largest machine accepted is built without allocating anything per line
// or per page.
func TestNewValidityRefusesUntaggableTables(t *testing.T) {
	for _, pages := range []int{1 << 26, 1<<26 + 1, 1 << 40, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewValidity(%d pages) did not panic", pages)
				}
			}()
			NewValidity(pages, 1)
		}()
	}
	const pages = 1<<26 - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewValidity(pages, 1)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<10 {
		t.Errorf("NewValidity(%d pages) allocated %d bytes", pages, grew)
	}
	if top := uint32(mem.GPage(pages - 1).Line(mem.LinesPerPage - 1)); top|staleBit == noTag {
		t.Errorf("the last line %d goes stale as the empty-way tag", top)
	}
}
