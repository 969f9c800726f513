package workload

import (
	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// Source generates data references within a region. Sources are the access-
// pattern building blocks: the sharing class of a page is determined by
// which processes attach sources to its region and with what write mix.
type Source interface {
	next(r *sim.Rand, cpu mem.CPUID) (page mem.GPage, line uint8, kind mem.AccessKind)
}

func kindFor(r *sim.Rand, writeFrac float64) mem.AccessKind {
	if writeFrac > 0 && r.Bool(writeFrac) {
		return mem.DataWrite
	}
	return mem.DataRead
}

// Sequential walks the region line by line, wrapping — the streaming access
// of simulators and numeric kernels. Good spatial locality, footprint-bound
// cache behaviour.
type Sequential struct {
	Reg       Region
	WriteFrac float64
	pos       int // line index within region
}

func (s *Sequential) next(r *sim.Rand, _ mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
	p := s.Reg.Page(s.pos / mem.LinesPerPage)
	l := uint8(s.pos % mem.LinesPerPage)
	s.pos++
	if s.pos >= s.Reg.N*mem.LinesPerPage {
		s.pos = 0
	}
	return p, l, kindFor(r, s.WriteFrac)
}

// Window accesses pages uniformly inside a window that drifts slowly across
// the region — the spatially concentrated but unstructured access of
// raytrace over its scene. The drift makes successive windows of pages hot
// in turn, which is what crosses the policy's trigger threshold.
type Window struct {
	Reg       Region
	W         int // window width in pages
	MoveEvery int // accesses between one-page drifts
	WriteFrac float64
	base      int
	count     int
}

func (s *Window) next(r *sim.Rand, _ mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
	w := s.W
	if w > s.Reg.N {
		w = s.Reg.N
	}
	// base and the draw are both < N, so a conditional subtract stands in
	// for the per-access modulo.
	idx := s.base + r.Intn(w)
	if idx >= s.Reg.N {
		idx -= s.Reg.N
	}
	p := s.Reg.Page(idx)
	s.count++
	if s.MoveEvery > 0 && s.count >= s.MoveEvery {
		s.count = 0
		s.base = (s.base + 1) % s.Reg.N
	}
	return p, uint8(r.Intn(mem.LinesPerPage)), kindFor(r, s.WriteFrac)
}

// Hot draws pages Zipf-distributed over the region — skewed shared access
// (database relations, volume data). The head of the distribution goes hot.
type Hot struct {
	Reg       Region
	WriteFrac float64
	// Stride scatters the Zipf head across the region so that co-resident
	// sources don't all hammer page 0.
	Stride int
}

func (s *Hot) next(r *sim.Rand, _ mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
	i := r.Zipf(s.Reg.N)
	if s.Stride > 1 {
		i = (i * s.Stride) % s.Reg.N
	}
	return s.Reg.Page(i), uint8(r.Intn(mem.LinesPerPage)), kindFor(r, s.WriteFrac)
}

// Chunk confines a process to its slice of a shared grid with occasional
// boundary references into the neighbouring slices — Ocean's nearest-
// neighbour communication. The chunk's interior behaves like private data
// (migration candidate); the boundary is lightly shared.
type Chunk struct {
	Reg          Region
	Index, Total int
	BoundaryFrac float64
	WriteFrac    float64
	pos          int
}

func (s *Chunk) bounds() (lo, n int) {
	per := s.Reg.N / s.Total
	if per == 0 {
		per = 1
	}
	lo = s.Index * per
	n = per
	if s.Index == s.Total-1 {
		n = s.Reg.N - lo
	}
	if lo >= s.Reg.N {
		lo, n = s.Reg.N-1, 1
	}
	return lo, n
}

func (s *Chunk) next(r *sim.Rand, _ mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
	lo, n := s.bounds()
	var idx int
	if s.BoundaryFrac > 0 && r.Bool(s.BoundaryFrac) {
		// Touch a neighbour's edge page.
		if s.Index > 0 && (s.Index == s.Total-1 || r.Bool(0.5)) {
			idx = lo - 1
		} else {
			idx = lo + n
		}
		if idx < 0 || idx >= s.Reg.N {
			idx = lo
		}
	} else {
		idx = lo + s.pos%n
		s.pos++
	}
	// Walk lines sequentially within the chunk for realistic locality.
	return s.Reg.Page(idx), uint8(s.pos % mem.LinesPerPage), kindFor(r, s.WriteFrac)
}

// Sync models fine-grain write-shared pages (the database's synchronization
// pages): a small page set, uniform access, high write fraction. These pages
// must never profit from replication or migration.
type Sync struct {
	Reg       Region
	WriteFrac float64
}

func (s *Sync) next(r *sim.Rand, _ mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
	return s.Reg.Page(r.Intn(s.Reg.N)), uint8(r.Intn(mem.LinesPerPage)), kindFor(r, s.WriteFrac)
}

// PerCPU accesses the sub-range of the region belonging to the CPU the
// process is running on — per-processor kernel structures (PDAs, local run
// queues, per-node page-frame descriptors). First-touch/wiring makes these
// local, which is why FT beats RR for kernel data (Section 8.2).
type PerCPU struct {
	Reg       Region
	CPUs      int
	WriteFrac float64
	pos       int
}

func (s *PerCPU) next(r *sim.Rand, cpu mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
	per := s.Reg.N / s.CPUs
	if per == 0 {
		per = 1
	}
	lo := int(cpu) * per % s.Reg.N
	idx := lo + r.Intn(per)
	if idx >= s.Reg.N {
		idx = s.Reg.N - 1
	}
	s.pos++
	return s.Reg.Page(idx), uint8(s.pos % mem.LinesPerPage), kindFor(r, s.WriteFrac)
}

// CodeWalk emits instruction fetches. A HotFrac fraction of fetches cycle
// through a small hot loop (cache-resident inner loops); the rest walk the
// region sequentially with occasional jumps (calls, phase changes). A cold
// walk over a footprint larger than the L2 produces the sustained
// instruction misses of the VCS workload; HotFrac sets the miss rate.
type CodeWalk struct {
	Reg Region
	// HotFrac of fetches stay inside a HotLines-long loop at the current
	// position (defaults: 0, 64).
	HotFrac  float64
	HotLines int
	// LoopLines is the cold window the walker loops over before jumping
	// (0 = the whole region).
	LoopLines int
	// JumpEvery is the number of cold fetches between window changes
	// (0 = never jump).
	JumpEvery int
	base      int
	pos       int
	hotPos    int
	count     int
}

func (s *CodeWalk) next(r *sim.Rand, _ mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
	total := s.Reg.N * mem.LinesPerPage
	if s.HotFrac > 0 && r.Bool(s.HotFrac) {
		hot := s.HotLines
		if hot <= 0 {
			hot = 64
		}
		if hot > total {
			hot = total
		}
		// base < total and hotPos < hot <= total, so one conditional
		// subtract replaces the modulo (an idiv on every hot fetch).
		line := s.base + s.hotPos
		if line >= total {
			line -= total
		}
		s.hotPos++
		if s.hotPos >= hot {
			s.hotPos = 0
		}
		return s.Reg.Page(line / mem.LinesPerPage), uint8(line % mem.LinesPerPage), mem.InstrFetch
	}
	loop := s.LoopLines
	if loop <= 0 || loop > total {
		loop = total
	}
	line := s.base + s.pos
	if line >= total {
		line -= total
	}
	s.pos++
	if s.pos >= loop {
		s.pos = 0
	}
	s.count++
	if s.JumpEvery > 0 && s.count >= s.JumpEvery {
		s.count = 0
		s.base = r.Intn(total)
		s.hotPos = 0
	}
	return s.Reg.Page(line / mem.LinesPerPage), uint8(line % mem.LinesPerPage), mem.InstrFetch
}

// weighted selects among sources with fixed weights. cum holds each
// source's cumulative share as a sim.Threshold, so a pick compares one
// integer draw against integers: the same draw picks the same source as
// comparing Float64() against the float cumulative shares.
type weighted struct {
	srcs []Source
	cum  []uint64
}

func newWeighted(srcs []Source, weights []float64) *weighted {
	if len(srcs) != len(weights) || len(srcs) == 0 {
		panic("workload: bad weighted source")
	}
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, x := range weights {
		sum += x
		cum[i] = sum
	}
	w := &weighted{srcs: srcs, cum: make([]uint64, len(weights))}
	for i := range cum {
		w.cum[i] = sim.Threshold(cum[i] / sum)
	}
	return w
}

func (w *weighted) pick(r *sim.Rand) Source {
	u := r.Uint64() >> 11
	for i, c := range w.cum {
		if u < c {
			return w.srcs[i]
		}
	}
	return w.srcs[len(w.srcs)-1]
}
