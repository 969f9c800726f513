// Package topology describes the simulated machine: how many nodes and CPUs,
// the cache and TLB geometry, the memory-system latencies, and the costs of
// the kernel operations the pager performs. Presets reproduce the three
// configurations evaluated in the paper: CC-NUMA (FLASH-like, remote latency
// 4x local), CC-NOW (distributed FLASH, remote latency 10x local), and the
// zero-network-delay configuration of Section 7.1.2.
package topology

import (
	"fmt"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// Config is a complete machine description. Construct one with a preset
// (CCNUMA, CCNOW, ZeroNet) and adjust fields before building the system;
// Validate reports inconsistent configurations.
type Config struct {
	Name string

	// Geometry.
	Nodes       int // memory nodes (one directory controller each)
	CPUsPerNode int
	// MemoryPerNode is the local memory of each node in bytes; it bounds the
	// per-node page allocator and creates the memory-pressure failures the
	// paper reports for the Splash workload.
	MemoryPerNode int64

	// Processor. The paper models 300 MHz processors; CycleTime is the cost
	// charged per simulated instruction between memory events.
	CycleTime sim.Time

	// Caches. Sizes in bytes; all caches use mem.LineSize lines.
	L1Size  int // per-CPU split I and D, each this size
	L1Assoc int
	L1Hit   sim.Time // charged only on L1 miss/L2 hit paths (L1 hits are free)
	L2Size  int      // per-CPU unified
	L2Assoc int
	L2Hit   sim.Time

	// TLB.
	TLBEntries int
	TLBAssoc   int
	// TLBRefill is the software-reload cost of a TLB miss.
	TLBRefill sim.Time

	// Memory system.
	LocalLatency  sim.Time // minimum latency of a local L2 miss
	RemoteLatency sim.Time // minimum latency of a remote L2 miss
	// DirOccupancy is the directory-controller service time consumed per
	// request; it produces the queueing that inflates observed latencies
	// (Section 7.1.3 observes 2279ns vs the 1200ns minimum).
	DirOccupancy sim.Time
	// NetLinkTime is the network service time per message hop; zero removes
	// network queueing entirely (the Section 7.1.2 experiment).
	NetLinkTime sim.Time

	// Kernel operation base costs (before simulated lock contention), which
	// calibrate the Table 5 step latencies. Presets store these already
	// multiplied by CostScale.
	Kernel KernelCosts
	// CostScale records the time-compression factor applied to Kernel, so
	// reports can state paper-equivalent latencies (see Scaled).
	CostScale float64

	// Policy-independent machine features.
	//
	// PagesPerInterrupt is how many hot pages the directory tries to batch
	// before raising a pager interrupt, amortizing interrupt and TLB-flush
	// costs (Section 4).
	PagesPerInterrupt int
	// DirCopy, when true, uses the MAGIC pipelined memory-to-memory copy
	// (35us) instead of a processor bcopy (~100us) — the ablation in 7.2.2.
	DirCopy bool
	// TrackTLBHolders, when true, models the "flush only TLBs with a
	// mapping" optimisation the paper simulates (-25% kernel overhead).
	TrackTLBHolders bool
}

// KernelCosts are per-operation base costs for the pager's Figure-2 steps.
type KernelCosts struct {
	InterruptEntry sim.Time // step 2: take interrupt, enter pager (per batch)
	PolicyDecision sim.Time // step 3: read counters, decide (per page)
	PageAllocBase  sim.Time // step 4: allocate page, before memlock wait
	LinkMapRepl    sim.Time // step 5: link replica, update ptes (page lock)
	LinkMapMigr    sim.Time // step 5: unlink/relink master (memlock held)
	TLBFlushLocal  sim.Time // step 6: cost charged to each flushed CPU
	TLBFlushWait   sim.Time // step 6: initiator wait per flush round
	PageCopyCPU    sim.Time // step 7: bcopy of one page by the processor
	PageCopyDir    sim.Time // step 7: pipelined copy by directory controller
	PolicyEndRepl  sim.Time // step 8: point ptes at nearest replica
	PolicyEndMigr  sim.Time // step 8: free old page, final mapping
	PageFault      sim.Time // cost of the extra faults caused by remapping
	CollapseBase   sim.Time // write-trap collapse path, excluding copy/flush
	MemlockHold    sim.Time // critical-section length under memlock
	PageLockHold   sim.Time // critical-section length under a page lock
}

// Scaled returns the costs multiplied by f. Experiments run time-compressed
// (hundreds of milliseconds instead of the paper's tens of seconds), so the
// machine presets scale the per-operation kernel costs by the same factor to
// keep the overhead-to-benefit ratio faithful; reports multiply back by
// 1/CostScale so Tables 5-6 are stated in paper-equivalent microseconds.
func (k KernelCosts) Scaled(f float64) KernelCosts {
	s := func(t sim.Time) sim.Time { return sim.Time(float64(t) * f) }
	return KernelCosts{
		InterruptEntry: s(k.InterruptEntry),
		PolicyDecision: s(k.PolicyDecision),
		PageAllocBase:  s(k.PageAllocBase),
		LinkMapRepl:    s(k.LinkMapRepl),
		LinkMapMigr:    s(k.LinkMapMigr),
		TLBFlushLocal:  s(k.TLBFlushLocal),
		TLBFlushWait:   s(k.TLBFlushWait),
		PageCopyCPU:    s(k.PageCopyCPU),
		PageCopyDir:    s(k.PageCopyDir),
		PolicyEndRepl:  s(k.PolicyEndRepl),
		PolicyEndMigr:  s(k.PolicyEndMigr),
		PageFault:      s(k.PageFault),
		CollapseBase:   s(k.CollapseBase),
		MemlockHold:    s(k.MemlockHold),
		PageLockHold:   s(k.PageLockHold),
	}
}

// DefaultKernelCosts returns costs calibrated so an uncontended migration or
// replication lands in the 400-500us total the paper measures (Table 5).
func DefaultKernelCosts() KernelCosts {
	return KernelCosts{
		InterruptEntry: 50 * sim.Microsecond, // amortized over a batch
		PolicyDecision: 13 * sim.Microsecond,
		PageAllocBase:  60 * sim.Microsecond,
		LinkMapRepl:    30 * sim.Microsecond,
		LinkMapMigr:    75 * sim.Microsecond,
		TLBFlushLocal:  22 * sim.Microsecond,
		TLBFlushWait:   60 * sim.Microsecond, // amortized over a batch
		PageCopyCPU:    100 * sim.Microsecond,
		PageCopyDir:    35 * sim.Microsecond,
		PolicyEndRepl:  80 * sim.Microsecond,
		PolicyEndMigr:  63 * sim.Microsecond,
		PageFault:      10 * sim.Microsecond,
		CollapseBase:   60 * sim.Microsecond,
		MemlockHold:    35 * sim.Microsecond,
		PageLockHold:   8 * sim.Microsecond,
	}
}

// defaultCostScale is the time-compression factor for kernel operation
// costs (experiments run ~8x shorter than the paper's).
const defaultCostScale = 0.125

// CCNUMA returns the 8-processor FLASH-like configuration of Section 5:
// 300 MHz CPUs, 32 KB 2-way split L1s, 512 KB 2-way unified L2 with 50ns hit
// time, 64-entry TLBs, 300ns local and 1200ns remote miss latency.
func CCNUMA() Config {
	return Config{
		Name:          "cc-numa",
		Nodes:         8,
		CPUsPerNode:   1,
		MemoryPerNode: 32 << 20,
		CycleTime:     3, // ~300MHz: 3.33ns, rounded to keep Time integral
		L1Size:        32 << 10,
		L1Assoc:       2,
		L1Hit:         3,
		L2Size:        512 << 10,
		L2Assoc:       2,
		L2Hit:         50,
		TLBEntries:    64,
		TLBAssoc:      4,
		TLBRefill:     250, // software-reloaded TLB: tens of cycles (R4000 utlbmiss)
		LocalLatency:  300,
		RemoteLatency: 1200,
		DirOccupancy:  300,
		NetLinkTime:   120,

		Kernel:            DefaultKernelCosts().Scaled(defaultCostScale),
		CostScale:         defaultCostScale,
		PagesPerInterrupt: 2,
		DirCopy:           false,
		TrackTLBHolders:   false,
	}
}

// CCNOW returns the CC-NOW configuration: identical to CC-NUMA except the
// remote miss latency rises to 3000ns (1000 ft of fiber, Section 5) and the
// network service time grows with it.
func CCNOW() Config {
	c := CCNUMA()
	c.Name = "cc-now"
	c.RemoteLatency = 3000
	c.NetLinkTime = 150
	return c
}

// ZeroNet returns the CC-NUMA configuration with all interconnection-network
// delay removed (Section 7.1.2): the wire contributes nothing, but a remote
// miss still traverses the requesting and home directory controllers, so
// remote misses remain more expensive than local ones and locality still
// pays (the paper measures a 21%% improvement in this configuration).
func ZeroNet() Config {
	c := CCNUMA()
	c.Name = "zero-net"
	c.RemoteLatency = c.LocalLatency + 2*c.DirOccupancy
	c.NetLinkTime = 0
	return c
}

// TotalCPUs returns the number of processors in the machine.
func (c *Config) TotalCPUs() int { return c.Nodes * c.CPUsPerNode }

// FramesPerNode returns how many page frames each node's memory holds.
func (c *Config) FramesPerNode() int { return int(c.MemoryPerNode / mem.PageSize) }

// TotalFrames returns the machine-wide frame count.
func (c *Config) TotalFrames() int { return c.Nodes * c.FramesPerNode() }

// NodeOf returns the home node of a CPU.
func (c *Config) NodeOf(cpu mem.CPUID) mem.NodeID {
	return mem.NodeID(int(cpu) / c.CPUsPerNode)
}

// NodeOfFrame returns the node whose memory holds frame f.
func (c *Config) NodeOfFrame(f mem.PFN) mem.NodeID {
	return mem.NodeID(int(f) / c.FramesPerNode())
}

// CopyCost returns the configured page-copy cost (step 7).
func (c *Config) CopyCost() sim.Time {
	if c.DirCopy {
		return c.Kernel.PageCopyDir
	}
	return c.Kernel.PageCopyCPU
}

// Validate reports the first inconsistency in the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("topology: %d nodes", c.Nodes)
	case c.CPUsPerNode <= 0:
		return fmt.Errorf("topology: %d CPUs per node", c.CPUsPerNode)
	case c.MemoryPerNode < mem.PageSize:
		return fmt.Errorf("topology: node memory %d below one page", c.MemoryPerNode)
	case c.L1Size < mem.LineSize || c.L2Size < mem.LineSize:
		return fmt.Errorf("topology: cache smaller than a line")
	case c.L1Assoc <= 0 || c.L2Assoc <= 0 || c.TLBAssoc <= 0:
		return fmt.Errorf("topology: non-positive associativity")
	case c.L1Size%(c.L1Assoc*mem.LineSize) != 0:
		return fmt.Errorf("topology: L1 size %d not divisible into %d-way line sets", c.L1Size, c.L1Assoc)
	case c.L2Size%(c.L2Assoc*mem.LineSize) != 0:
		return fmt.Errorf("topology: L2 size %d not divisible into %d-way line sets", c.L2Size, c.L2Assoc)
	case c.TLBEntries%c.TLBAssoc != 0:
		return fmt.Errorf("topology: TLB entries %d not divisible by assoc %d", c.TLBEntries, c.TLBAssoc)
	case c.CycleTime <= 0:
		return fmt.Errorf("topology: non-positive cycle time")
	case c.LocalLatency <= 0 || c.RemoteLatency < c.LocalLatency:
		return fmt.Errorf("topology: latencies local=%d remote=%d", c.LocalLatency, c.RemoteLatency)
	case c.PagesPerInterrupt <= 0:
		return fmt.Errorf("topology: non-positive interrupt batch")
	case int64(c.TotalFrames()) > int64(^uint32(0)):
		return fmt.Errorf("topology: frame count overflows PFN")
	}
	return nil
}
