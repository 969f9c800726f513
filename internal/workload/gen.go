package workload

import (
	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// Gen is the configurable process generator: it interleaves instruction
// fetches with data references drawn from weighted sources, alternates
// between user and kernel phases (syscall bursts), blocks periodically
// (I/O, think time), and optionally exits after a fixed amount of work.
type Gen struct {
	// Code is the user instruction stream (required).
	Code *CodeWalk
	// Data are the user data sources with their mix weights (required).
	Data    []Source
	Weights []float64
	// DataFrac is the fraction of references that are data accesses.
	DataFrac float64

	// Kernel behaviour: KernelFrac of references execute in kernel mode, in
	// bursts of mean KernelBurst references (a syscall's worth of work).
	KCode       *CodeWalk
	KData       []Source
	KWeights    []float64
	KDataFrac   float64
	KernelFrac  float64
	KernelBurst int

	// Locality is the probability that a data reference repeats the last
	// data line touched (temporal locality; repeats usually hit the cache,
	// so 1-Locality scales the distinct-line rate). KLocality is the kernel
	// analogue.
	Locality  float64
	KLocality float64

	// Blocking: the process blocks for ~BlockDur every ~BlockEvery
	// references. Zero disables.
	BlockEvery int
	BlockDur   sim.Time

	// ExitAfter terminates the process after that many references (zero:
	// runs until the deadline).
	ExitAfter uint64

	r         *sim.Rand
	count     uint64
	inKernel  bool
	lastBlock sim.Time
	phaseLeft int
	nextBlock int
	data      *weighted
	kdata     *weighted
	lastU     [2]uint32 // last user data (page, line)
	lastK     [2]uint32 // last kernel data (page, line)
	haveU     bool
	haveK     bool

	// Thresholds (sim.Threshold) of DataFrac, KDataFrac, Locality and
	// KLocality, fixed at Reset so each per-reference coin is one integer
	// compare.
	dataTh, kdataTh, locTh, klocTh uint64
}

// Reset seeds the generator; it must be called before first use (the
// machine calls it when the process is created or respawned).
func (g *Gen) Reset(seed uint64) {
	g.r = sim.NewRand(seed)
	g.count = 0
	g.inKernel = false
	g.phaseLeft = 0
	g.nextBlock = 0
	g.haveU, g.haveK = false, false
	g.Code.reset()
	if g.KCode != nil {
		g.KCode.reset()
	}
	g.data = newWeighted(g.Data, g.Weights)
	if len(g.KData) > 0 {
		g.kdata = newWeighted(g.KData, g.KWeights)
	}
	if g.DataFrac <= 0 {
		g.DataFrac = 0.35
	}
	if g.KDataFrac <= 0 {
		g.KDataFrac = 0.5
	}
	if g.KernelBurst <= 0 {
		g.KernelBurst = 200
	}
	g.dataTh, g.kdataTh = sim.Threshold(g.DataFrac), sim.Threshold(g.KDataFrac)
	g.locTh, g.klocTh = sim.Threshold(g.Locality), sim.Threshold(g.KLocality)
}

// Kernel reports whether the step Next last returned executes in kernel
// mode.
func (g *Gen) Kernel() bool { return g.inKernel }

// LastBlock is the duration of the last StepBlock Next returned.
func (g *Gen) LastBlock() sim.Time { return g.lastBlock }

// Next produces the process's next step while running on cpu.
func (g *Gen) Next(cpu mem.CPUID) Step {
	g.count++
	if g.ExitAfter > 0 && g.count > g.ExitAfter {
		return Step{Kind: StepExit}
	}
	if g.BlockEvery > 0 {
		g.nextBlock--
		if g.nextBlock <= 0 {
			g.nextBlock = 1 + g.r.Geometric(float64(g.BlockEvery))
			g.lastBlock = sim.Time(float64(g.BlockDur) * (0.5 + g.r.Float64()))
			return Step{Kind: StepBlock}
		}
	}

	// User/kernel phase alternation.
	if g.KernelFrac > 0 && g.kdata != nil {
		g.phaseLeft--
		if g.phaseLeft <= 0 {
			if g.inKernel {
				g.inKernel = false
				userMean := float64(g.KernelBurst) * (1 - g.KernelFrac) / g.KernelFrac
				g.phaseLeft = 1 + g.r.Geometric(userMean)
			} else {
				g.inKernel = true
				g.phaseLeft = 1 + g.r.Geometric(float64(g.KernelBurst))
			}
		}
	}

	// A zero locality threshold skips the repeat coin's draw entirely (a
	// threshold is non-zero exactly when its probability is positive).
	st := Step{Kind: StepAccess}
	if g.inKernel {
		if g.r.Below(g.kdataTh) {
			if g.haveK && g.klocTh > 0 && g.r.Below(g.klocTh) {
				st.Page, st.Line, st.Access = mem.GPage(g.lastK[0]), uint8(g.lastK[1]), mem.DataRead
				return st
			}
			st.Page, st.Line, st.Access = g.kdata.pick(g.r).next(g.r, cpu)
			g.lastK = [2]uint32{uint32(st.Page), uint32(st.Line)}
			g.haveK = true
		} else {
			st.Page, st.Line, st.Access = g.KCode.next(g.r, cpu)
		}
		return st
	}
	if g.r.Below(g.dataTh) {
		if g.haveU && g.locTh > 0 && g.r.Below(g.locTh) {
			st.Page, st.Line, st.Access = mem.GPage(g.lastU[0]), uint8(g.lastU[1]), mem.DataRead
			return st
		}
		st.Page, st.Line, st.Access = g.data.pick(g.r).next(g.r, cpu)
		g.lastU = [2]uint32{uint32(st.Page), uint32(st.Line)}
		g.haveU = true
	} else {
		st.Page, st.Line, st.Access = g.Code.next(g.r, cpu)
	}
	return st
}
