// Package alloc is the per-node physical page allocator. Each node owns its
// local frames: a stack of freed frames over a fresh watermark that hands
// out never-allocated frames lowest first, so nothing is filled up front.
// The pager allocates strictly on the node the policy chose (a failure is
// the "No Page" outcome of Table 4), while ordinary page faults may fall
// back to other nodes so the workload itself never deadlocks on a full node.
//
// The allocator also tracks the replication space overhead of Section 7.2.3:
// frames are tagged by purpose, and peak replica usage is recorded.
package alloc

import (
	"errors"
	"fmt"

	"ccnuma/internal/mem"
)

// ErrNoFrames reports total exhaustion: no online node has a free frame.
// Callers distinguish it from a transient, injected failure (ErrTransient)
// and from the per-node failure AllocOn signals with mem.NoFrame.
var ErrNoFrames = errors.New("alloc: no free frames on any online node")

// ErrTransient reports an injected transient allocation failure (the fault
// layer's FailHook fired). Memory exists; a retry may succeed.
var ErrTransient = errors.New("alloc: transient allocation failure (injected)")

// Purpose tags why a frame was allocated.
type Purpose uint8

const (
	// Base frames hold a page's master copy.
	Base Purpose = iota
	// Replica frames hold additional copies created by the policy.
	Replica
)

// Allocator manages the machine's physical frames.
type Allocator struct {
	// FailHook, when set, is consulted on every allocation attempt and may
	// fail it transiently (the fault layer's injected allocation failures).
	// It must be deterministic for reproducible runs.
	FailHook func(n mem.NodeID) bool

	nodes   int
	perNode int
	free    [][]mem.PFN // per-node stacks of freed frames
	fresh   []int       // per node: frames never allocated, the top fresh[n] of its range
	state   []uint8     // per frame: 0 free, 1+Purpose allocated
	offline []bool      // drained nodes: allocations refused, frames stay resident

	baseInUse    int
	replicaInUse int
	peakBase     int
	peakReplica  int
	failures     uint64 // strict allocations that found the node empty or offline
	transient    uint64 // allocations failed by the FailHook
}

// New builds an allocator for nodes nodes of perNode frames each. No free
// list is filled up front: every frame starts fresh.
func New(nodes, perNode int) *Allocator {
	a := &Allocator{
		nodes:   nodes,
		perNode: perNode,
		free:    make([][]mem.PFN, nodes),
		fresh:   make([]int, nodes),
		state:   make([]uint8, nodes*perNode),
		offline: make([]bool, nodes),
	}
	for n := range a.fresh {
		a.fresh[n] = perNode
	}
	return a
}

// NodeOf returns the home node of frame f.
func (a *Allocator) NodeOf(f mem.PFN) mem.NodeID {
	return mem.NodeID(int(f) / a.perNode)
}

// FreeOn returns the number of free frames on a node.
func (a *Allocator) FreeOn(n mem.NodeID) int { return len(a.free[n]) + a.fresh[n] }

// AllocOn allocates a frame strictly on node n. It returns mem.NoFrame when
// the node's memory is exhausted, offline, or the FailHook fails the attempt
// (the pager records this as a No-Page failure, matching the paper's
// behaviour of not falling back).
func (a *Allocator) AllocOn(n mem.NodeID, p Purpose) mem.PFN {
	if a.offline[n] || a.FreeOn(n) == 0 {
		a.failures++
		return mem.NoFrame
	}
	if a.FailHook != nil && a.FailHook(n) {
		a.failures++
		a.transient++
		return mem.NoFrame
	}
	return a.pop(n, p)
}

// AllocAnywhere allocates on node pref if possible, otherwise on the online
// node with the most free memory. Page faults use this path. The error is
// ErrTransient when the FailHook failed the attempt (memory exists; retry)
// and ErrNoFrames when no online node has a free frame.
func (a *Allocator) AllocAnywhere(pref mem.NodeID, p Purpose) (mem.PFN, error) {
	if a.FailHook != nil && a.FailHook(pref) {
		a.transient++
		return mem.NoFrame, ErrTransient
	}
	if !a.offline[pref] && a.FreeOn(pref) > 0 {
		return a.pop(pref, p), nil
	}
	best, bestFree := mem.NodeID(-1), 0
	for n := 0; n < a.nodes; n++ {
		if free := a.FreeOn(mem.NodeID(n)); !a.offline[n] && free > bestFree {
			best, bestFree = mem.NodeID(n), free
		}
	}
	if best < 0 {
		a.failures++
		return mem.NoFrame, ErrNoFrames
	}
	return a.pop(best, p), nil
}

// pop takes node n's most recently freed frame, or else its lowest fresh
// one (the node must have a free frame). Freed frames always sit above the
// fresh ones, so this is the order of one stack pre-filled high to low.
func (a *Allocator) pop(n mem.NodeID, p Purpose) mem.PFN {
	var f mem.PFN
	if stack := a.free[n]; len(stack) > 0 {
		f = stack[len(stack)-1]
		a.free[n] = stack[:len(stack)-1]
	} else {
		f = mem.PFN(a.watermark(n))
		a.fresh[n]--
	}
	a.take(f, p)
	return f
}

// watermark is the lowest fresh frame of node n: every frame below it has
// been allocated at least once, none at or above it ever has.
func (a *Allocator) watermark(n mem.NodeID) int {
	return (int(n)+1)*a.perNode - a.fresh[n]
}

// SetOffline marks node n drained (or restores it): while offline, AllocOn
// on the node fails and AllocAnywhere skips it. Frames already allocated
// stay resident and may still be freed back to the node.
func (a *Allocator) SetOffline(n mem.NodeID, off bool) { a.offline[n] = off }

// Offline reports whether node n's memory is drained.
func (a *Allocator) Offline(n mem.NodeID) bool { return a.offline[n] }

func (a *Allocator) take(f mem.PFN, p Purpose) {
	if a.state[f] != 0 {
		panic(fmt.Sprintf("alloc: frame %d double-allocated", f))
	}
	a.state[f] = 1 + uint8(p)
	switch p {
	case Replica:
		a.replicaInUse++
		if a.replicaInUse > a.peakReplica {
			a.peakReplica = a.replicaInUse
		}
	default:
		a.baseInUse++
		if a.baseInUse > a.peakBase {
			a.peakBase = a.baseInUse
		}
	}
}

// Free returns a frame to its node's free list.
func (a *Allocator) Free(f mem.PFN) {
	if a.state[f] == 0 {
		panic(fmt.Sprintf("alloc: frame %d double-freed", f))
	}
	p := Purpose(a.state[f] - 1)
	a.state[f] = 0
	switch p {
	case Replica:
		a.replicaInUse--
	default:
		a.baseInUse--
	}
	n := a.NodeOf(f)
	a.free[n] = append(a.free[n], f)
}

// Allocated reports whether frame f is currently allocated.
func (a *Allocator) Allocated(f mem.PFN) bool { return a.state[f] != 0 }

// UsageOn returns one node's memory picture: free frames, and allocated
// frames split into master copies and replicas (the sampler's per-node
// time-series).
func (a *Allocator) UsageOn(n mem.NodeID) (free, base, replica int) {
	for _, st := range a.state[int(n)*a.perNode : a.watermark(n)] {
		switch st {
		case 1 + uint8(Base):
			base++
		case 1 + uint8(Replica):
			replica++
		}
	}
	return a.FreeOn(n), base, replica
}

// Pressure reports whether node n is under memory pressure: fewer than
// lowWater frames free, or the node drained entirely. The policy stops
// replicating onto pressured nodes.
func (a *Allocator) Pressure(n mem.NodeID, lowWater int) bool {
	return a.offline[n] || a.FreeOn(n) < lowWater
}

// Stats describes allocator usage.
type Stats struct {
	BaseInUse    int
	ReplicaInUse int
	PeakBase     int
	PeakReplica  int
	Failures     uint64
	// TransientFailures counts allocations failed by the fault layer's
	// FailHook (a subset of Failures only on the AllocOn path; AllocAnywhere
	// transients are counted here alone).
	TransientFailures uint64
}

// Snapshot returns usage statistics. ReplicaOverhead (Section 7.2.3) is
// PeakReplica / PeakBase.
func (a *Allocator) Snapshot() Stats {
	return Stats{
		BaseInUse:         a.baseInUse,
		ReplicaInUse:      a.replicaInUse,
		PeakBase:          a.peakBase,
		PeakReplica:       a.peakReplica,
		Failures:          a.failures,
		TransientFailures: a.transient,
	}
}

// ReplicaOverhead returns the peak replica memory as a fraction of the peak
// base memory, the Section 7.2.3 space-overhead measure.
func (s Stats) ReplicaOverhead() float64 {
	if s.PeakBase == 0 {
		return 0
	}
	return float64(s.PeakReplica) / float64(s.PeakBase)
}

// CheckInvariant verifies free+allocated == capacity on every node and
// returns an error describing the first violation (nil when consistent).
// Frames at or above a node's fresh watermark were never allocated, so the
// scan stops there.
func (a *Allocator) CheckInvariant() error {
	for n := mem.NodeID(0); int(n) < a.nodes; n++ {
		inUse := 0
		for _, st := range a.state[int(n)*a.perNode : a.watermark(n)] {
			if st != 0 {
				inUse++
			}
		}
		if inUse+a.FreeOn(n) != a.perNode {
			return fmt.Errorf("alloc: node %d holds %d allocated + %d free != %d frames",
				n, inUse, a.FreeOn(n), a.perNode)
		}
	}
	return nil
}
