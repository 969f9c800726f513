package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

func TestAllocOnStaysOnNode(t *testing.T) {
	a := New(4, 8)
	for n := mem.NodeID(0); n < 4; n++ {
		f := a.AllocOn(n, Base)
		if f == mem.NoFrame {
			t.Fatalf("node %d empty at start", n)
		}
		if a.NodeOf(f) != n {
			t.Fatalf("frame %d not on node %d", f, n)
		}
	}
}

func TestAllocOnFailsWhenNodeFull(t *testing.T) {
	a := New(2, 4)
	for i := 0; i < 4; i++ {
		if a.AllocOn(0, Base) == mem.NoFrame {
			t.Fatal("premature exhaustion")
		}
	}
	if a.AllocOn(0, Base) != mem.NoFrame {
		t.Fatal("over-allocated node 0")
	}
	if a.Snapshot().Failures != 1 {
		t.Fatal("failure not counted")
	}
	if a.AllocOn(1, Base) == mem.NoFrame {
		t.Fatal("node 1 should still have frames")
	}
}

func TestAllocAnywhereFallsBack(t *testing.T) {
	a := New(2, 2)
	a.AllocOn(0, Base)
	a.AllocOn(0, Base)
	f, err := a.AllocAnywhere(0, Base)
	if err != nil {
		t.Fatalf("fallback failed with free frames on node 1: %v", err)
	}
	if a.NodeOf(f) != 1 {
		t.Fatalf("fallback frame on node %d, want 1", a.NodeOf(f))
	}
	a.AllocAnywhere(1, Base)
	if _, err := a.AllocAnywhere(0, Base); err == nil {
		t.Fatal("allocation succeeded on an empty machine")
	}
}

// Regression: exhausting every node must yield the typed ErrNoFrames, not a
// bare failure, so callers can tell "machine full" from "retry later".
func TestAllocAnywhereErrNoFrames(t *testing.T) {
	a := New(2, 2)
	for i := 0; i < 4; i++ {
		if _, err := a.AllocAnywhere(mem.NodeID(i%2), Base); err != nil {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	_, err := a.AllocAnywhere(0, Base)
	if !errors.Is(err, ErrNoFrames) {
		t.Fatalf("exhausted machine returned %v, want ErrNoFrames", err)
	}
	if errors.Is(err, ErrTransient) {
		t.Fatal("ErrNoFrames must not match ErrTransient")
	}
	if a.Snapshot().Failures != 1 {
		t.Fatalf("failures = %d, want 1", a.Snapshot().Failures)
	}
}

func TestFailHookTransient(t *testing.T) {
	a := New(2, 4)
	fail := true
	a.FailHook = func(mem.NodeID) bool { return fail }

	if _, err := a.AllocAnywhere(0, Base); !errors.Is(err, ErrTransient) {
		t.Fatal("FailHook did not surface as ErrTransient")
	}
	if a.AllocOn(0, Base) != mem.NoFrame {
		t.Fatal("FailHook did not fail AllocOn")
	}
	s := a.Snapshot()
	if s.TransientFailures != 2 {
		t.Fatalf("transient failures = %d, want 2", s.TransientFailures)
	}
	// AllocOn counts its hook failure in Failures too; AllocAnywhere does not
	// (memory exists, nothing was actually exhausted).
	if s.Failures != 1 {
		t.Fatalf("failures = %d, want 1", s.Failures)
	}

	fail = false
	if _, err := a.AllocAnywhere(0, Base); err != nil {
		t.Fatalf("alloc failed after hook cleared: %v", err)
	}
}

func TestOfflineNode(t *testing.T) {
	a := New(2, 2)
	a.SetOffline(0, true)
	if !a.Offline(0) || a.Offline(1) {
		t.Fatal("offline flags wrong")
	}
	if a.AllocOn(0, Base) != mem.NoFrame {
		t.Fatal("allocated on an offline node")
	}
	f, err := a.AllocAnywhere(0, Base)
	if err != nil {
		t.Fatalf("fallback off the offline node failed: %v", err)
	}
	if a.NodeOf(f) != 1 {
		t.Fatalf("AllocAnywhere placed frame on node %d, want 1", a.NodeOf(f))
	}
	// Frames already resident can still be freed back while offline.
	a.Free(f)
	a.SetOffline(0, false)
	if a.AllocOn(0, Base) == mem.NoFrame {
		t.Fatal("node did not come back online")
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := New(1, 1)
	f := a.AllocOn(0, Base)
	a.Free(f)
	if g := a.AllocOn(0, Base); g != f {
		t.Fatalf("reallocated %d, want %d", g, f)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New(1, 2)
	f := a.AllocOn(0, Base)
	a.Free(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not caught")
		}
	}()
	a.Free(f)
}

func TestReplicaAccounting(t *testing.T) {
	a := New(1, 8)
	a.AllocOn(0, Base)
	r1 := a.AllocOn(0, Replica)
	r2 := a.AllocOn(0, Replica)
	s := a.Snapshot()
	if s.BaseInUse != 1 || s.ReplicaInUse != 2 || s.PeakReplica != 2 {
		t.Fatalf("stats = %+v", s)
	}
	a.Free(r1)
	a.Free(r2)
	s = a.Snapshot()
	if s.ReplicaInUse != 0 || s.PeakReplica != 2 {
		t.Fatalf("post-free stats = %+v", s)
	}
	if got := s.ReplicaOverhead(); got != 2.0 {
		t.Fatalf("replica overhead = %v, want 2.0", got)
	}
}

func TestPressure(t *testing.T) {
	a := New(1, 10)
	if a.Pressure(0, 4) {
		t.Fatal("fresh node under pressure")
	}
	for i := 0; i < 7; i++ {
		a.AllocOn(0, Base)
	}
	if !a.Pressure(0, 4) {
		t.Fatal("node with 3 free frames not under pressure at lowWater 4")
	}
}

// Pressure boundaries: free == lowWater is not pressured (strict less-than),
// lowWater 0 never pressures an online node, and a drained node is always
// pressured regardless of free memory.
func TestPressureBoundaries(t *testing.T) {
	a := New(1, 10)
	for i := 0; i < 6; i++ {
		a.AllocOn(0, Base)
	}
	if a.Pressure(0, 4) {
		t.Fatal("free == lowWater reported as pressure")
	}
	if !a.Pressure(0, 5) {
		t.Fatal("free < lowWater not reported as pressure")
	}
	if a.Pressure(0, 0) {
		t.Fatal("lowWater 0 pressured an online node")
	}
	a.SetOffline(0, true)
	if !a.Pressure(0, 0) {
		t.Fatal("drained node not under pressure at lowWater 0")
	}
	if !a.Pressure(0, 4) {
		t.Fatal("drained node with free frames not under pressure")
	}
}

// Property: any interleaving of allocs and frees preserves
// free+allocated == capacity and never hands out the same frame twice.
func TestAllocatorInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		a := New(3, 16)
		var live []mem.PFN
		for i := 0; i < 400; i++ {
			if r.Bool(0.55) {
				p := Base
				if r.Bool(0.3) {
					p = Replica
				}
				f, err := a.AllocAnywhere(mem.NodeID(r.Intn(3)), p)
				if err == nil {
					for _, x := range live {
						if x == f {
							return false // double allocation
						}
					}
					live = append(live, f)
				}
			} else if len(live) > 0 {
				i := r.Intn(len(live))
				a.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if a.CheckInvariant() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// eagerAllocator is the allocator as it was before free lists were filled
// on demand: every node's free stack pre-filled high to low, and a purpose
// and an allocated flag per frame. TestAllocatorMatchesEager holds the
// on-demand allocator to its every answer.
type eagerAllocator struct {
	failHook  func(n mem.NodeID) bool
	nodes     int
	perNode   int
	free      [][]mem.PFN
	purpose   []Purpose
	allocated []bool
	offline   []bool
	stats     Stats
}

func newEager(nodes, perNode int) *eagerAllocator {
	a := &eagerAllocator{
		nodes:     nodes,
		perNode:   perNode,
		free:      make([][]mem.PFN, nodes),
		purpose:   make([]Purpose, nodes*perNode),
		allocated: make([]bool, nodes*perNode),
		offline:   make([]bool, nodes),
	}
	for n := 0; n < nodes; n++ {
		for f := perNode - 1; f >= 0; f-- {
			a.free[n] = append(a.free[n], mem.PFN(n*perNode+f))
		}
	}
	return a
}

func (a *eagerAllocator) allocOn(n mem.NodeID, p Purpose) mem.PFN {
	if a.offline[n] || len(a.free[n]) == 0 {
		a.stats.Failures++
		return mem.NoFrame
	}
	if a.failHook(n) {
		a.stats.Failures++
		a.stats.TransientFailures++
		return mem.NoFrame
	}
	return a.pop(n, p)
}

func (a *eagerAllocator) allocAnywhere(pref mem.NodeID, p Purpose) (mem.PFN, error) {
	if a.failHook(pref) {
		a.stats.TransientFailures++
		return mem.NoFrame, ErrTransient
	}
	if !a.offline[pref] && len(a.free[pref]) > 0 {
		return a.pop(pref, p), nil
	}
	best, bestFree := mem.NodeID(-1), 0
	for n := 0; n < a.nodes; n++ {
		if !a.offline[n] && len(a.free[n]) > bestFree {
			best, bestFree = mem.NodeID(n), len(a.free[n])
		}
	}
	if best < 0 {
		a.stats.Failures++
		return mem.NoFrame, ErrNoFrames
	}
	return a.pop(best, p), nil
}

func (a *eagerAllocator) pop(n mem.NodeID, p Purpose) mem.PFN {
	stack := a.free[n]
	f := stack[len(stack)-1]
	a.free[n] = stack[:len(stack)-1]
	a.allocated[f], a.purpose[f] = true, p
	s := &a.stats
	if p == Replica {
		s.ReplicaInUse++
		s.PeakReplica = max(s.PeakReplica, s.ReplicaInUse)
	} else {
		s.BaseInUse++
		s.PeakBase = max(s.PeakBase, s.BaseInUse)
	}
	return f
}

func (a *eagerAllocator) freeFrame(f mem.PFN) {
	a.allocated[f] = false
	if a.purpose[f] == Replica {
		a.stats.ReplicaInUse--
	} else {
		a.stats.BaseInUse--
	}
	n := int(f) / a.perNode
	a.free[n] = append(a.free[n], f)
}

func (a *eagerAllocator) usageOn(n mem.NodeID) (free, base, replica int) {
	for f := int(n) * a.perNode; f < (int(n)+1)*a.perNode; f++ {
		switch {
		case !a.allocated[f]:
		case a.purpose[f] == Replica:
			replica++
		default:
			base++
		}
	}
	return len(a.free[n]), base, replica
}

// TestAllocatorMatchesEager drives the on-demand allocator and the eager
// reference with one random stream of AllocOn, AllocAnywhere, Free and
// SetOffline calls, each under its own copy of one deterministic FailHook,
// on small geometries that run nodes dry. After every call the frames and
// errors returned must agree, and so must FreeOn, UsageOn, Pressure,
// Snapshot and CheckInvariant.
func TestAllocatorMatchesEager(t *testing.T) {
	// hook fails one call in seven, by a count of its own calls, so two
	// allocators that consult it at the same points fail the same calls.
	hook := func() func(mem.NodeID) bool {
		calls := 0
		return func(n mem.NodeID) bool {
			calls++
			return (calls+int(n))%7 == 0
		}
	}
	seen := map[error]int{}
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRand(seed)
		nodes, perNode := 1+r.Intn(4), 1+r.Intn(8)
		got, want := New(nodes, perNode), newEager(nodes, perNode)
		got.FailHook, want.failHook = hook(), hook()
		var live []mem.PFN
		for i := 0; i < 600; i++ {
			n := mem.NodeID(r.Intn(nodes))
			p := Base
			if r.Bool(0.3) {
				p = Replica
			}
			var op string
			switch k := r.Intn(10); {
			case k < 3:
				op = "AllocOn"
				f, g := got.AllocOn(n, p), want.allocOn(n, p)
				if f != g {
					t.Fatalf("seed %d op %d: AllocOn(%d) = %d, eager %d", seed, i, n, f, g)
				}
				if f != mem.NoFrame {
					live = append(live, f)
				}
			case k < 6:
				op = "AllocAnywhere"
				f, err := got.AllocAnywhere(n, p)
				g, gerr := want.allocAnywhere(n, p)
				if f != g || err != gerr {
					t.Fatalf("seed %d op %d: AllocAnywhere(%d) = %d, %v; eager %d, %v", seed, i, n, f, err, g, gerr)
				}
				seen[err]++
				if err == nil {
					live = append(live, f)
				}
			case k < 9:
				op = "Free"
				if len(live) == 0 {
					continue
				}
				j := r.Intn(len(live))
				got.Free(live[j])
				want.freeFrame(live[j])
				live = append(live[:j], live[j+1:]...)
			default:
				op = "SetOffline"
				off := r.Bool(0.5)
				got.SetOffline(n, off)
				want.offline[n] = off
			}
			if s := got.Snapshot(); s != want.stats {
				t.Fatalf("seed %d op %d (%s): Snapshot %+v, eager %+v", seed, i, op, s, want.stats)
			}
			if err := got.CheckInvariant(); err != nil {
				t.Fatalf("seed %d op %d (%s): %v", seed, i, op, err)
			}
			for m := mem.NodeID(0); int(m) < nodes; m++ {
				f, b, rp := got.UsageOn(m)
				wf, wb, wr := want.usageOn(m)
				if f != wf || b != wb || rp != wr || got.FreeOn(m) != wf {
					t.Fatalf("seed %d op %d (%s): node %d usage %d/%d/%d free %d, eager %d/%d/%d",
						seed, i, op, m, f, b, rp, got.FreeOn(m), wf, wb, wr)
				}
				for _, low := range []int{0, 1, perNode / 2, perNode} {
					if got.Pressure(m, low) != (want.offline[m] || wf < low) {
						t.Fatalf("seed %d op %d (%s): node %d Pressure(%d) disagrees", seed, i, op, m, low)
					}
				}
			}
		}
	}
	if seen[nil] == 0 || seen[ErrTransient] == 0 || seen[ErrNoFrames] == 0 {
		t.Fatalf("AllocAnywhere outcomes %v: the stream must allocate, fail transiently and run dry", seen)
	}
}
