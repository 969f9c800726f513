package vm

import (
	"testing"
	"testing/quick"

	"ccnuma/internal/cache"
	"ccnuma/internal/kernel/alloc"
	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

const (
	tNodes = 4
	tPages = 32
)

func newVM(place Placer) (*VM, *alloc.Allocator, *cache.Validity) {
	a := alloc.New(tNodes, 64)
	val := cache.NewValidity(tPages, 1)
	v := New(tPages, tNodes, a, val, place)
	return v, a, val
}

// cachedPage builds a cache on val holding every line of page p, so a test
// can see which page operations invalidate the page's cached lines.
func cachedPage(val *cache.Validity, p mem.GPage) *cache.Cache {
	c := cache.New("probe", 64*1024, 2, val)
	for i := 0; i < mem.LinesPerPage; i++ {
		c.Insert(p.Line(i))
	}
	return c
}

// cachedLines counts the lines of page p that c holds a valid copy of.
func cachedLines(c *cache.Cache, p mem.GPage) int {
	n := 0
	for i := 0; i < mem.LinesPerPage; i++ {
		if c.Contains(p.Line(i)) {
			n++
		}
	}
	return n
}

func TestFirstTouchPlacement(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	p := v.AddProcess()
	pte, kind := v.Touch(p, 5, 2)
	if kind != FirstTouchFault {
		t.Fatalf("kind = %v, want first-touch fault", kind)
	}
	if a.NodeOf(pte.PFN) != 2 {
		t.Fatalf("first touch placed on node %d, want 2", a.NodeOf(pte.PFN))
	}
	if pte.RO {
		t.Fatal("fresh page mapped read-only")
	}
	if _, kind := v.Touch(p, 5, 2); kind != NoFault {
		t.Fatal("second touch faulted")
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	v, a, _ := newVM(RoundRobin(tNodes))
	p := v.AddProcess()
	for pg := mem.GPage(0); pg < 8; pg++ {
		pte, _ := v.Touch(p, pg, 0)
		want := mem.NodeID(int(pg) % tNodes)
		if a.NodeOf(pte.PFN) != want {
			t.Fatalf("page %d on node %d, want %d", pg, a.NodeOf(pte.PFN), want)
		}
	}
}

func TestSecondProcessMapFault(t *testing.T) {
	v, _, _ := newVM(FirstTouch)
	p1, p2 := v.AddProcess(), v.AddProcess()
	pte1, _ := v.Touch(p1, 3, 0)
	pte2, kind := v.Touch(p2, 3, 1)
	if kind != MapFault {
		t.Fatalf("kind = %v, want map fault", kind)
	}
	if pte1.PFN != pte2.PFN {
		t.Fatal("two processes mapped different frames for the same page")
	}
	if got := len(v.Page(3).Mappers); got != 2 {
		t.Fatalf("mappers = %d, want 2", got)
	}
}

func TestMigrateRewritesAllPTEs(t *testing.T) {
	v, a, val := newVM(FirstTouch)
	p1, p2 := v.AddProcess(), v.AddProcess()
	v.Touch(p1, 3, 0)
	v.Touch(p2, 3, 0)
	old := v.Page(3).Master
	c := cachedPage(val, 3)
	nf := a.AllocOn(2, alloc.Base)
	if err := v.Migrate(3, nf); err != nil {
		t.Fatal(err)
	}
	if v.PTE(p1, 3).PFN != nf || v.PTE(p2, 3).PFN != nf {
		t.Fatal("pte not rewritten after migration")
	}
	if a.Allocated(old) {
		t.Fatal("old master frame not freed")
	}
	if n := cachedLines(c, 3); n != 0 {
		t.Fatalf("%d cached lines of the page survived its migration", n)
	}
	if v.Page(3).MigCount != 1 {
		t.Fatalf("MigCount = %d, want 1", v.Page(3).MigCount)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateMarksReadOnlyAndPointsNearest(t *testing.T) {
	v, a, val := newVM(FirstTouch)
	p1, p2 := v.AddProcess(), v.AddProcess()
	v.Locate = func(p mem.ProcID) mem.NodeID {
		if p == p1 {
			return 0
		}
		return 2
	}
	v.Touch(p1, 3, 0) // master on node 0
	v.Touch(p2, 3, 2) // maps master remotely
	c := cachedPage(val, 3)
	nf := a.AllocOn(2, alloc.Replica)
	if err := v.Replicate(3, nf); err != nil {
		t.Fatal(err)
	}
	if !v.PTE(p1, 3).RO || !v.PTE(p2, 3).RO {
		t.Fatal("ptes not read-only after replication")
	}
	if v.PTE(p2, 3).PFN != nf {
		t.Fatal("p2's pte should point at the node-2 replica")
	}
	if v.PTE(p1, 3).PFN != v.Page(3).Master {
		t.Fatal("p1's pte should stay on the master")
	}
	if n := cachedLines(c, 3); n != mem.LinesPerPage {
		t.Fatalf("replication invalidated %d cached lines (master copy unchanged)", mem.LinesPerPage-n)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateRejectsDuplicateNode(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	p := v.AddProcess()
	v.Touch(p, 1, 0)
	r := a.AllocOn(2, alloc.Replica)
	if err := v.Replicate(1, r); err != nil {
		t.Fatal(err)
	}
	r2 := a.AllocOn(2, alloc.Replica)
	if err := v.Replicate(1, r2); err == nil {
		t.Fatal("second replica on same node accepted")
	}
	a.Free(r2)
}

func TestMigrateReplicatedPageRejected(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	p := v.AddProcess()
	v.Touch(p, 1, 0)
	if err := v.Replicate(1, a.AllocOn(2, alloc.Replica)); err != nil {
		t.Fatal(err)
	}
	nf := a.AllocOn(3, alloc.Base)
	if err := v.Migrate(1, nf); err == nil {
		t.Fatal("migrated a replicated page")
	}
	a.Free(nf)
}

func TestCollapseKeepsNearestAndRestoresWrite(t *testing.T) {
	v, a, val := newVM(FirstTouch)
	p1, p2 := v.AddProcess(), v.AddProcess()
	v.Locate = func(p mem.ProcID) mem.NodeID { return 0 }
	v.Touch(p1, 3, 0)
	v.Touch(p2, 3, 0)
	rep := a.AllocOn(2, alloc.Replica)
	v.Replicate(3, rep)
	c := cachedPage(val, 3)
	freed := v.Collapse(3, 2) // writer on node 2: keep the node-2 replica
	if freed != 1 {
		t.Fatalf("freed = %d, want 1", freed)
	}
	if v.Page(3).Master != rep {
		t.Fatal("collapse should keep the node-2 copy as master")
	}
	if len(v.Page(3).Replicas) != 0 {
		t.Fatal("replicas survive collapse")
	}
	if v.PTE(p1, 3).RO || v.PTE(p2, 3).RO {
		t.Fatal("ptes still read-only after collapse")
	}
	if v.PTE(p1, 3).PFN != rep || v.PTE(p2, 3).PFN != rep {
		t.Fatal("ptes not pointed at the kept copy")
	}
	if n := cachedLines(c, 3); n != 0 {
		t.Fatalf("%d cached lines of the page survived its collapse", n)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseNoReplicasNoop(t *testing.T) {
	v, _, _ := newVM(FirstTouch)
	p := v.AddProcess()
	v.Touch(p, 3, 0)
	if freed := v.Collapse(3, 1); freed != 0 {
		t.Fatalf("collapse of unreplicated page freed %d", freed)
	}
}

func TestRemap(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	p := v.AddProcess()
	v.Touch(p, 3, 0)
	rep := a.AllocOn(2, alloc.Replica)
	v.Replicate(3, rep)
	// p was located on node 0 (default Locate), so still points at master.
	v.Remap(p, 3, 2)
	if v.PTE(p, 3).PFN != rep {
		t.Fatal("remap did not pick up the local replica")
	}
}

func TestWiredPagesRejectActions(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	v.Wire(7, 1)
	if v.MasterNode(7) != 1 {
		t.Fatal("wired page not on requested node")
	}
	nf := a.AllocOn(0, alloc.Base)
	if err := v.Migrate(7, nf); err == nil {
		t.Fatal("migrated a wired page")
	}
	if err := v.Replicate(7, nf); err == nil {
		t.Fatal("replicated a wired page")
	}
	a.Free(nf)
}

func TestRemoveProcessCleansBackMaps(t *testing.T) {
	v, _, _ := newVM(FirstTouch)
	p1, p2 := v.AddProcess(), v.AddProcess()
	v.Touch(p1, 3, 0)
	v.Touch(p2, 3, 0)
	v.RemoveProcess(p1)
	if got := len(v.Page(3).Mappers); got != 1 {
		t.Fatalf("mappers after exit = %d, want 1", got)
	}
	p3 := v.AddProcess() // must reuse the freed slot
	if p3 != p1 {
		t.Fatalf("slot reuse: got %d, want %d", p3, p1)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleasePageFreesEverything(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	p := v.AddProcess()
	pte, _ := v.Touch(p, 3, 0)
	rep := a.AllocOn(2, alloc.Replica)
	v.Replicate(3, rep)
	v.ReleasePage(3)
	if a.Allocated(pte.PFN) || a.Allocated(rep) {
		t.Fatal("frames leaked after release")
	}
	if v.PTE(p, 3).Valid {
		t.Fatal("pte valid after release")
	}
	if v.Page(3).Master != mem.NoFrame {
		t.Fatal("master survives release")
	}
}

func TestReclaimReplicaOn(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	p := v.AddProcess()
	v.Touch(p, 3, 0)
	rep := a.AllocOn(2, alloc.Replica)
	v.Replicate(3, rep)
	pg, ok := v.ReclaimReplicaOn(2)
	if !ok {
		t.Fatal("reclaim found nothing")
	}
	if pg != 3 {
		t.Fatalf("reclaimed page %d, want 3", pg)
	}
	if a.Allocated(rep) {
		t.Fatal("replica frame not freed")
	}
	if v.PTE(p, 3).RO {
		t.Fatal("pte still RO after last replica reclaimed")
	}
	if _, ok := v.ReclaimReplicaOn(2); ok {
		t.Fatal("reclaim found a ghost replica")
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Touch must ride out transient injected allocation failures by retrying,
// counting each retry, rather than killing the workload.
func TestTouchRetriesTransientFailures(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	p := v.AddProcess()
	remaining := 3
	a.FailHook = func(mem.NodeID) bool {
		if remaining > 0 {
			remaining--
			return true
		}
		return false
	}
	pte, kind := v.Touch(p, 7, 1)
	if kind != FirstTouchFault {
		t.Fatalf("kind = %v, want first-touch fault", kind)
	}
	if a.NodeOf(pte.PFN) != 1 {
		t.Fatalf("retried allocation landed on node %d, want 1", a.NodeOf(pte.PFN))
	}
	if got := v.Snapshot().AllocRetries; got != 3 {
		t.Fatalf("alloc retries = %d, want 3", got)
	}
}

// A transient-failure storm that outlasts the retry budget surfaces as the
// fault-handler panic instead of looping forever.
func TestTouchGivesUpAfterRetryBudget(t *testing.T) {
	v, a, _ := newVM(FirstTouch)
	p := v.AddProcess()
	a.FailHook = func(mem.NodeID) bool { return true }
	defer func() {
		if recover() == nil {
			t.Fatal("endless transient failures did not surface")
		}
	}()
	v.Touch(p, 7, 1)
}

// Property: random sequences of VM operations preserve all structural
// invariants and allocator consistency.
func TestVMInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		a := alloc.New(tNodes, 64)
		val := cache.NewValidity(tPages, 1)
		v := New(tPages, tNodes, a, val, FirstTouch)
		var procs []mem.ProcID
		for i := 0; i < 4; i++ {
			procs = append(procs, v.AddProcess())
		}
		v.Locate = func(p mem.ProcID) mem.NodeID { return mem.NodeID(int(p) % tNodes) }
		for i := 0; i < 300; i++ {
			pg := mem.GPage(r.Intn(tPages))
			pi := v.Page(pg)
			switch r.Intn(6) {
			case 0, 1:
				v.Touch(procs[r.Intn(len(procs))], pg, mem.NodeID(r.Intn(tNodes)))
			case 2:
				if pi.Master != mem.NoFrame && len(pi.Replicas) == 0 {
					if f := a.AllocOn(mem.NodeID(r.Intn(tNodes)), alloc.Base); f != mem.NoFrame {
						if v.Migrate(pg, f) != nil {
							a.Free(f)
						}
					}
				}
			case 3:
				if pi.Master != mem.NoFrame {
					n := mem.NodeID(r.Intn(tNodes))
					if !v.HasReplicaOn(pg, n) {
						if f := a.AllocOn(n, alloc.Replica); f != mem.NoFrame {
							if v.Replicate(pg, f) != nil {
								a.Free(f)
							}
						}
					}
				}
			case 4:
				v.Collapse(pg, mem.NodeID(r.Intn(tNodes)))
			case 5:
				if pi.Master != mem.NoFrame && r.Bool(0.2) {
					v.ReleasePage(pg)
				}
			}
			if v.CheckInvariants() != nil || a.CheckInvariant() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
