// Package workload models the five compute-server workloads of Table 2 as
// synthetic reference generators. The paper's results hinge on the sharing
// structure of pages — private data, read-mostly shared data, write-shared
// data, shared code — and on how the scheduler moves processes, not on
// application semantics, so each workload is assembled from access-pattern
// sources that reproduce those classes at footprints matching Table 3
// (scaled; see DESIGN.md).
package workload

import (
	"fmt"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
	"ccnuma/internal/trace"
)

// StepKind classifies a generator step.
type StepKind uint8

const (
	// StepAccess is one memory reference.
	StepAccess StepKind = iota
	// StepBlock suspends the process (I/O, synchronization, think time).
	StepBlock
	// StepExit terminates the process.
	StepExit
)

// Step is one unit of process behaviour. Page, Line and Access describe a
// StepAccess reference; the step's mode is (*Gen).Kernel and a StepBlock's
// duration is (*Gen).LastBlock.
//
// Step must keep four fields or fewer. The Go compiler keeps a struct of at
// most four fields in registers across a call; a fifth spills every
// reference to the stack on its way from Gen.Next through the CPU step loop
// into the memory access, and that spill (narrow stores read back by wide
// loads, which defeats store forwarding) was most of the step loop's own
// host time. State about a step that the access path rarely needs belongs
// on the generator, behind an accessor.
type Step struct {
	Kind   StepKind
	Page   mem.GPage
	Line   uint8
	Access mem.AccessKind
}

// RegionKind classifies a mapped region.
type RegionKind uint8

const (
	// CodeRegion holds instructions.
	CodeRegion RegionKind = iota
	// DataRegion holds data.
	DataRegion
	// KernelRegion holds kernel code or data (wired at boot).
	KernelRegion
)

// Region is a contiguous range of logical pages.
type Region struct {
	ID    mem.RegionID
	Name  string
	Start mem.GPage
	N     int
	Kind  RegionKind
	// Shared regions are mapped by several processes.
	Shared bool
	// WireNode >= 0 wires the region's pages to a node at boot (kernel
	// regions). WireStripe wires page i to node i mod nodes instead.
	WireNode   int
	WireStripe bool
}

// Page returns the i-th page of the region. It runs once per generated
// reference, so it must stay within the inlining budget: the out-of-range
// case panics with a pageOutOfRange value, formatted only when printed,
// rather than calling a function (a call alone costs most of the budget).
func (r Region) Page(i int) mem.GPage {
	if uint(i) >= uint(r.N) {
		panic(pageOutOfRange{r.Name, r.N, i})
	}
	return r.Start + mem.GPage(i)
}

// pageOutOfRange is Region.Page's panic value.
type pageOutOfRange struct {
	region string
	n, i   int
}

func (e pageOutOfRange) Error() string {
	return fmt.Sprintf("workload: page %d outside region %s (%d pages)", e.i, e.region, e.n)
}

// Layout hands out dense page ranges.
type Layout struct {
	next    mem.GPage
	Regions []Region
}

// NewRegion appends a region of n pages.
func (l *Layout) NewRegion(name string, n int, kind RegionKind, shared bool) Region {
	if n <= 0 {
		panic("workload: empty region " + name)
	}
	r := Region{
		ID:       mem.RegionID(len(l.Regions)),
		Name:     name,
		Start:    l.next,
		N:        n,
		Kind:     kind,
		Shared:   shared,
		WireNode: -1,
	}
	l.next += mem.GPage(n)
	l.Regions = append(l.Regions, r)
	return r
}

// Pages returns the total number of pages laid out.
func (l *Layout) Pages() int { return int(l.next) }

// SchedKind selects the scheduling discipline (Section 6).
type SchedKind int

const (
	// SchedAffinity is UNIX priority scheduling with cache affinity.
	SchedAffinity SchedKind = iota
	// SchedPinned locks each process to a processor.
	SchedPinned
	// SchedPartition is space partitioning (scheduler activations).
	SchedPartition
)

// ProcSpec describes one process.
type ProcSpec struct {
	Name string
	// Gen produces the process's step stream; Reset re-seeds it for a
	// respawned process.
	Gen *Gen
	// Pin >= 0 fixes the process to that CPU (pinned scheduling).
	Pin mem.CPUID
	// Job groups processes for space partitioning.
	Job int
	// StartAt delays the process's arrival (Splash jobs enter over time).
	StartAt sim.Time
	// ExitAt forces the process to leave at that time (0 = never). Its job
	// departing triggers repartitioning.
	ExitAt sim.Time
	// Respawn recreates the process (fresh ProcID, reset generator, private
	// pages released) whenever it exits — the pmake process churn.
	Respawn bool
	// MaxRespawns bounds the churn so the workload completes (0 with
	// Respawn set means unbounded; the run then ends at the duration cap).
	MaxRespawns int
	// Private regions are released when the process exits.
	Private []Region
}

// PreTouch records that a process initialises a region before the run
// starts: the master touching all shared data at startup is what strands
// pages on one node under first-touch placement.
type PreTouch struct {
	Proc   int // index into Spec.Procs
	Region Region
}

// Spec is a complete workload description.
type Spec struct {
	Name    string
	Regions []Region
	Pages   int
	Procs   []ProcSpec
	Sched   SchedKind
	// PreTouches run before the clock starts.
	PreTouches []PreTouch
	// Duration is the default simulated run length.
	Duration sim.Time
	// Trigger is the paper's per-workload trigger threshold (Section 7: 96
	// for engineering, 128 for the others).
	Trigger uint16
	// Nodes overrides the machine's node count (the database runs on four
	// processors). Zero keeps the configured machine.
	Nodes int
	// MemoryPerNode overrides per-node memory (the Splash workload runs
	// close to the per-node capacity, producing No-Page failures). Zero
	// keeps the configured machine.
	MemoryPerNode int64
}

// Validate reports the first inconsistency in the spec. A footprint past
// trace.MaxPages is one: its miss trace could not be replayed, and Splash,
// whose machine memory grows with its footprint, would size its tables
// without bound.
func (s *Spec) Validate() error {
	if s.Pages <= 0 {
		return fmt.Errorf("workload %s: no pages", s.Name)
	}
	if s.Pages > trace.MaxPages {
		return fmt.Errorf("workload %s: %d pages exceed the bound of %d", s.Name, s.Pages, trace.MaxPages)
	}
	if len(s.Procs) == 0 {
		return fmt.Errorf("workload %s: no processes", s.Name)
	}
	for i, p := range s.Procs {
		if p.Gen == nil {
			return fmt.Errorf("workload %s: proc %d (%s) has no generator", s.Name, i, p.Name)
		}
	}
	for _, pt := range s.PreTouches {
		if pt.Proc < 0 || pt.Proc >= len(s.Procs) {
			return fmt.Errorf("workload %s: pretouch proc %d out of range", s.Name, pt.Proc)
		}
	}
	if s.Duration <= 0 {
		return fmt.Errorf("workload %s: no duration", s.Name)
	}
	if s.Trigger == 0 {
		return fmt.Errorf("workload %s: no trigger threshold", s.Name)
	}
	return nil
}

// Builder constructs a workload at a given scale. Scale 1.0 is the default
// experiment size; tests use smaller scales.
type Builder func(scale float64, seed uint64) *Spec

// ByName returns the builder for one of the five paper workloads.
func ByName(name string) (Builder, error) {
	switch name {
	case "engineering", "engr":
		return Engineering, nil
	case "raytrace":
		return Raytrace, nil
	case "splash":
		return Splash, nil
	case "database", "db":
		return Database, nil
	case "pmake":
		return Pmake, nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the five workloads in the paper's order.
func Names() []string {
	return []string{"engineering", "raytrace", "splash", "database", "pmake"}
}

// CheckScale rejects a scale factor no workload can be built at: one that is
// not positive, not a number, or above trace.MaxPages, where even a one-page
// region would name more pages than a trace may hold. The builders size
// regions through scaled, which would turn such a factor into the smallest
// workload without a word (an enormous product overflows int, and NaN
// converts arbitrarily); front ends check the scale here before building.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= trace.MaxPages) {
		return fmt.Errorf("workload: scale %v out of range (0, %d]", scale, trace.MaxPages)
	}
	return nil
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}
