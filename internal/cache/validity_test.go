package cache

import (
	"testing"

	"ccnuma/internal/mem"
)

// TestValidityAssignKeepsStamps pins the contract the kernel relies on when
// a migration or collapse moves a page's master copy: no cache entry's
// validity verdict depends on where the page lives, so placing a page
// anywhere leaves every stamp untouched.
func TestValidityAssignKeepsStamps(t *testing.T) {
	v := NewValidity(8, 4)
	p := mem.GPage(3)
	l := p.Line(5)
	if v.LineVersion(l) != 0 || v.PageEpoch(p) != 0 {
		t.Fatal("never-resident page has non-zero stamps")
	}
	v.Assign(p, 1)
	v.BumpLine(l)
	v.BumpLine(l)
	v.BumpPage(p)
	v.Assign(p, 2)
	if got := v.LineVersion(l); got != 2 {
		t.Fatalf("line version = %d after a move, want 2", got)
	}
	if got := v.PageEpoch(p); got != 1 {
		t.Fatalf("page epoch = %d after a move, want 1", got)
	}
	q := mem.GPage(6)
	if v.LineVersion(q.Line(5)) != 0 || v.PageEpoch(q) != 0 {
		t.Fatal("stamps of one page leaked into another")
	}
}

// TestValidityParkingPreservesStamps pins the release semantics: a released
// page keeps its stamps, so a cached entry surviving the release can never
// re-validate against reset stamps when the page comes back on a different
// node.
func TestValidityParkingPreservesStamps(t *testing.T) {
	v := NewValidity(8, 4)
	p := mem.GPage(2)
	l := p.Line(0)
	v.Assign(p, 3)
	version := v.BumpLine(l)
	epochAtCache := v.PageEpoch(p) // a cache entry stamps {version, epochAtCache}

	v.BumpPage(p) // ReleasePage's machine-wide invalidation

	// Next residence lands on node 0; the stamps carry over.
	v.Assign(p, 0)
	if v.PageEpoch(p) == epochAtCache {
		t.Fatal("stale cache entry would re-validate: epoch reset across release")
	}
	if got := v.LineVersion(l); got != version {
		t.Fatalf("line version reset across release: %d, want %d", got, version)
	}
}

// TestValiditySingleNodeCompat pins the construct-and-bump pattern on a
// one-node machine: stamps work without any Assign.
func TestValiditySingleNodeCompat(t *testing.T) {
	v := NewValidity(4, 1)
	l := mem.GPage(2).Line(7)
	if got := v.BumpLine(l); got != 1 {
		t.Fatalf("first bump = %d, want 1", got)
	}
	v.BumpPage(2)
	if v.PageEpoch(2) != 1 {
		t.Fatalf("epoch %d after one bump", v.PageEpoch(2))
	}
}

// TestValidityUnhomedBumps pins the boundary behaviour for a page that was
// never placed on any node of a multi-node machine. The flat tables have no
// unhomed state: releasing such a page bumps its epoch like any other,
// writing one of its lines bumps that line's version, neither touches a
// neighbouring page, and placing the page afterwards keeps both stamps.
func TestValidityUnhomedBumps(t *testing.T) {
	v := NewValidity(4, 2)
	p := mem.GPage(1)
	v.BumpPage(p)
	if got := v.PageEpoch(p); got != 1 {
		t.Fatalf("release of a never-placed page: epoch %d, want 1", got)
	}
	if got := v.BumpLine(p.Line(0)); got != 1 {
		t.Fatalf("write to a never-placed page: line version %d, want 1", got)
	}
	for _, q := range []mem.GPage{0, 2} {
		if v.PageEpoch(q) != 0 || v.LineVersion(q.Line(0)) != 0 {
			t.Fatalf("bumps on page %d leaked into page %d", p, q)
		}
	}
	if v.LineVersion(p.Line(mem.LinesPerPage-1)) != 0 {
		t.Fatal("a line write bumped another line of the same page")
	}
	v.Assign(p, 1)
	if v.PageEpoch(p) != 1 || v.LineVersion(p.Line(0)) != 1 {
		t.Fatalf("placing the page reset its stamps: epoch %d, line version %d",
			v.PageEpoch(p), v.LineVersion(p.Line(0)))
	}
}
