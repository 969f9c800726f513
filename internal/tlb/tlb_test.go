package tlb

import (
	"testing"
	"testing/quick"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

func TestLookupMissThenHit(t *testing.T) {
	tb := New(64, 4)
	if _, _, ok := tb.Lookup(1, 10); ok {
		t.Fatal("hit in empty TLB")
	}
	tb.Insert(1, 10, 99, true)
	pfn, ro, ok := tb.Lookup(1, 10)
	if !ok || pfn != 99 || !ro {
		t.Fatalf("Lookup = (%v,%v,%v), want (99,true,true)", pfn, ro, ok)
	}
	hits, misses := tb.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestASIDSeparation(t *testing.T) {
	tb := New(64, 4)
	tb.Insert(1, 10, 5, false)
	if _, _, ok := tb.Lookup(2, 10); ok {
		t.Fatal("translation leaked across address spaces")
	}
	tb.Insert(2, 10, 7, false)
	p1, _, _ := tb.Lookup(1, 10)
	p2, _, _ := tb.Lookup(2, 10)
	if p1 != 5 || p2 != 7 {
		t.Fatalf("per-ASID pfns = %d,%d, want 5,7", p1, p2)
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	tb := New(64, 4)
	tb.Insert(1, 10, 5, false)
	tb.Insert(1, 10, 6, true) // remap (e.g. after migration) with new prot
	pfn, ro, ok := tb.Lookup(1, 10)
	if !ok || pfn != 6 || !ro {
		t.Fatalf("updated entry = (%v,%v,%v), want (6,true,true)", pfn, ro, ok)
	}
	if tb.Valid() != 1 {
		t.Fatalf("valid entries = %d, want 1 (update must not duplicate)", tb.Valid())
	}
}

func TestLRUWithinSet(t *testing.T) {
	tb := New(4, 4) // one set of four ways
	for p := mem.GPage(0); p < 4; p++ {
		tb.Insert(1, p*4, mem.PFN(p), false) // stride keeps them in one set
	}
	tb.Lookup(1, 0) // page 0 becomes MRU; page 4 is LRU
	tb.Insert(1, 16, 99, false)
	if _, _, ok := tb.Lookup(1, 4); ok {
		t.Fatal("LRU entry survived")
	}
	if _, _, ok := tb.Lookup(1, 0); !ok {
		t.Fatal("MRU entry evicted")
	}
}

func TestFlushAll(t *testing.T) {
	tb := New(64, 4)
	for p := mem.GPage(0); p < 32; p++ {
		tb.Insert(1, p, mem.PFN(p), false)
	}
	tb.FlushAll()
	if tb.Valid() != 0 {
		t.Fatalf("%d entries survived shootdown", tb.Valid())
	}
}

func TestFlushPageAllASIDs(t *testing.T) {
	tb := New(64, 4)
	tb.Insert(1, 10, 5, false)
	tb.Insert(2, 10, 6, false)
	tb.Insert(1, 11, 7, false)
	tb.FlushPage(10)
	if tb.HoldsPage(10) {
		t.Fatal("page 10 still translated after FlushPage")
	}
	if !tb.HoldsPage(11) {
		t.Fatal("unrelated page flushed")
	}
}

func TestHoldsPage(t *testing.T) {
	tb := New(64, 4)
	if tb.HoldsPage(3) {
		t.Fatal("empty TLB claims to hold a page")
	}
	tb.Insert(4, 3, 9, false)
	if !tb.HoldsPage(3) {
		t.Fatal("HoldsPage false after insert")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for entries not divisible by assoc")
		}
	}()
	New(10, 4)
}

// Property: after any operation sequence, no stale translation survives a
// shootdown, and lookups never return an entry for the wrong (asid, page).
func TestTLBConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		tb := New(16, 4)
		shadow := map[[2]int]mem.PFN{} // only tracks most recent inserts still plausibly resident
		for i := 0; i < 300; i++ {
			asid := mem.ProcID(r.Intn(3))
			page := mem.GPage(r.Intn(10))
			switch r.Intn(3) {
			case 0:
				pfn := mem.PFN(r.Intn(100))
				tb.Insert(asid, page, pfn, false)
				shadow[[2]int{int(asid), int(page)}] = pfn
			case 1:
				if pfn, _, ok := tb.Lookup(asid, page); ok {
					want, present := shadow[[2]int{int(asid), int(page)}]
					if !present || pfn != want {
						return false // hit returned a translation never inserted
					}
				}
			case 2:
				tb.FlushAll()
				shadow = map[[2]int]mem.PFN{}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHitMRUMatchesLookup drives twin TLBs with one random stream of
// lookups, inserts and flushes. The probe twin answers each lookup with
// HitMRU and falls back to Lookup on a miss, as the fast read path does; the
// other always uses Lookup. Answers, statistics and every way must agree
// after each operation, and a probe miss must change nothing.
func TestHitMRUMatchesLookup(t *testing.T) {
	r := sim.NewRand(7)
	probe, full := New(16, 4), New(16, 4)
	for i := 0; i < 200000; i++ {
		asid := mem.ProcID(r.Intn(3))
		page := mem.GPage(r.Intn(24))
		switch op := r.Intn(20); {
		case op < 12:
			before := append([]entry(nil), probe.ways...)
			bh, bm := probe.Stats()
			pfn, ok := probe.HitMRU(asid, page)
			if !ok {
				if h, m := probe.Stats(); h != bh || m != bm || !sameWays(probe.ways, before) {
					t.Fatalf("op %d: a HitMRU miss changed the TLB", i)
				}
				pfn, _, ok = probe.Lookup(asid, page)
			}
			wpfn, _, wok := full.Lookup(asid, page)
			if pfn != wpfn || ok != wok {
				t.Fatalf("op %d: probe answered (%d, %v), Lookup (%d, %v)", i, pfn, ok, wpfn, wok)
			}
		case op < 18:
			pfn, ro := mem.PFN(r.Intn(100)), r.Intn(2) == 0
			probe.Insert(asid, page, pfn, ro)
			full.Insert(asid, page, pfn, ro)
		case op == 18:
			probe.FlushPage(page)
			full.FlushPage(page)
		default:
			probe.FlushAll()
			full.FlushAll()
		}
		ph, pm := probe.Stats()
		fh, fm := full.Stats()
		if ph != fh || pm != fm {
			t.Fatalf("op %d: stats %d/%d, want %d/%d", i, ph, pm, fh, fm)
		}
		if !sameWays(probe.ways, full.ways) {
			t.Fatalf("op %d: ways differ", i)
		}
	}
	if h, _ := full.Stats(); h == 0 {
		t.Fatal("the stream produced no hit")
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
