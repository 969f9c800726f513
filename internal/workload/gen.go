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
	lastU     Ref // last user data pick
	lastK     Ref // last kernel data pick
	haveU     bool
	haveK     bool

	// deferred lists the PerCPU sources of Data and then KData, fixed at
	// Reset; a deferred ref names its source by index here. own resolves
	// Next's deferred refs.
	deferred []*PerCPU
	own      Resolver

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
	g.deferred = g.deferred[:0]
	for _, srcs := range [2][]Source{g.Data, g.KData} {
		for _, src := range srcs {
			if pc, ok := src.(*PerCPU); ok {
				pc.idx = uint8(len(g.deferred))
				g.deferred = append(g.deferred, pc)
			}
		}
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

// Next produces the process's next step while running on cpu, resolving a
// PerCPU pick on cpu. It is the same stream as Fill's, one step at a time,
// without the step's mode or a StepBlock's duration, which only the
// machine reads (from Fill's refs).
func (g *Gen) Next(cpu mem.CPUID) Step {
	r := g.ref()
	if r.Deferred() {
		r = g.own.Resolve(g, r, cpu)
	}
	return r.Step()
}

// Fill writes the process's next steps into buf and appends the duration of
// each StepBlock among them to blocks, in order. It stops after a StepExit,
// so n is short of len(buf) exactly when the last ref is the exit. Fill
// reads nothing from the machine: the consumer resolves deferred refs with
// a Resolver on the CPU that runs them. Fill and Next must not be mixed on
// one Gen between Resets.
func (g *Gen) Fill(buf []Ref, blocks []sim.Time) (n int, _ []sim.Time) {
	for i := range buf {
		r := g.ref()
		buf[i] = r
		switch r.Kind() {
		case StepBlock:
			blocks = append(blocks, g.lastBlock)
		case StepExit:
			return i + 1, blocks
		}
	}
	return len(buf), blocks
}

// ref draws the next step, packed, with any PerCPU page deferred.
func (g *Gen) ref() Ref {
	g.count++
	if g.ExitAfter > 0 && g.count > g.ExitAfter {
		return Ref(StepExit) << refKindShift
	}
	if g.BlockEvery > 0 {
		g.nextBlock--
		if g.nextBlock <= 0 {
			g.nextBlock = 1 + g.r.Geometric(float64(g.BlockEvery))
			g.lastBlock = sim.Time(float64(g.BlockDur) * (0.5 + g.r.Float64()))
			return Ref(StepBlock) << refKindShift
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
	if g.inKernel {
		if g.r.Below(g.kdataTh) {
			if g.haveK && g.klocTh > 0 && g.r.Below(g.klocTh) {
				return repeat(g.lastK)
			}
			g.lastK = g.kdata.draw(g.r) | refKernelBit
			g.haveK = true
			return g.lastK
		}
		return accessRef(g.KCode.next(g.r)) | refKernelBit
	}
	if g.r.Below(g.dataTh) {
		if g.haveU && g.locTh > 0 && g.r.Below(g.locTh) {
			return repeat(g.lastU)
		}
		g.lastU = g.data.draw(g.r)
		g.haveU = true
		return g.lastU
	}
	return accessRef(g.Code.next(g.r))
}

// repeat is a locality repeat of data pick r: a read of the same line, and
// of the page the consumer resolved for r if r was deferred.
func repeat(r Ref) Ref {
	r = r&^(Ref(0xff)<<refAccessShift) | Ref(mem.DataRead)<<refAccessShift
	if r.Deferred() {
		r = r&^refFixMask | fixRepeat
	}
	return r
}
