package workload

import (
	"testing"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// floatCoin is the coin the sources flipped before their thresholds:
// Rand.Bool's float compare.
func floatCoin(r *sim.Rand, p float64) bool { return r.Float64() < p }

// floatKind is kindFor with the float coin.
func floatKind(r *sim.Rand, writeFrac float64) mem.AccessKind {
	if writeFrac > 0 && floatCoin(r, writeFrac) {
		return mem.DataWrite
	}
	return mem.DataRead
}

// floatChunkNext is Chunk.next with float coins.
func floatChunkNext(s *Chunk, r *sim.Rand) (mem.GPage, uint8, mem.AccessKind) {
	lo, n := s.bounds()
	var idx int
	if s.BoundaryFrac > 0 && floatCoin(r, s.BoundaryFrac) {
		if s.Index > 0 && (s.Index == s.Total-1 || floatCoin(r, 0.5)) {
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
	return s.Reg.Page(idx), uint8(s.pos % mem.LinesPerPage), floatKind(r, s.WriteFrac)
}

// floatCodeWalkNext is CodeWalk.next with the float hot-loop coin.
func floatCodeWalkNext(s *CodeWalk, r *sim.Rand) (mem.GPage, uint8, mem.AccessKind) {
	total := s.Reg.N * mem.LinesPerPage
	if s.HotFrac > 0 && floatCoin(r, s.HotFrac) {
		hot := s.HotLines
		if hot <= 0 {
			hot = 64
		}
		if hot > total {
			hot = total
		}
		line := (s.base + s.hotPos) % total
		s.hotPos = (s.hotPos + 1) % hot
		return s.Reg.Page(line / mem.LinesPerPage), uint8(line % mem.LinesPerPage), mem.InstrFetch
	}
	loop := s.LoopLines
	if loop <= 0 || loop > total {
		loop = total
	}
	line := (s.base + s.pos) % total
	s.pos = (s.pos + 1) % loop
	s.count++
	if s.JumpEvery > 0 && s.count >= s.JumpEvery {
		s.count = 0
		s.base = r.Intn(total)
		s.hotPos = 0
	}
	return s.Reg.Page(line / mem.LinesPerPage), uint8(line % mem.LinesPerPage), mem.InstrFetch
}

// TestThresholdCoinsMatchFloat draws 10^5 references from seeded twins of
// every source kind and of CodeWalk: one flips the integer threshold coins
// fixed at reset, the other the float coins the sources used before. The
// (page, line, kind) sequences must be equal. For the sources whose only
// coin is the write coin, which each draws last, the float twin runs next
// with no write coin (a zero threshold skips the draw) and flips the float
// coin after it.
func TestThresholdCoinsMatchFloat(t *testing.T) {
	l := &Layout{}
	reg := l.NewRegion("r", 24, DataRegion, true)
	code := l.NewRegion("c", 24, CodeRegion, true)
	fracs := []float64{0, 1e-6, 0.3, 0.5, 0.93, 1}
	type twin struct {
		name  string
		coin  Source
		float func(r *sim.Rand, cpu mem.CPUID) (mem.GPage, uint8, mem.AccessKind)
	}
	// writeLast wraps a source built with no write fraction as the float
	// twin of one built with writeFrac.
	writeLast := func(s Source, writeFrac float64) func(*sim.Rand, mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
		s.reset()
		return func(r *sim.Rand, cpu mem.CPUID) (mem.GPage, uint8, mem.AccessKind) {
			p, ln, _ := s.next(r, cpu)
			return p, ln, floatKind(r, writeFrac)
		}
	}
	var twins []twin
	for _, f := range fracs {
		twins = append(twins,
			twin{"Sequential", &Sequential{Reg: reg, WriteFrac: f}, writeLast(&Sequential{Reg: reg}, f)},
			twin{"Window", &Window{Reg: reg, W: 5, MoveEvery: 40, WriteFrac: f},
				writeLast(&Window{Reg: reg, W: 5, MoveEvery: 40}, f)},
			twin{"Hot", &Hot{Reg: reg, Stride: 7, WriteFrac: f}, writeLast(&Hot{Reg: reg, Stride: 7}, f)},
			twin{"Sync", &Sync{Reg: reg, WriteFrac: f}, writeLast(&Sync{Reg: reg}, f)},
			twin{"PerCPU", &PerCPU{Reg: reg, CPUs: 4, WriteFrac: f}, writeLast(&PerCPU{Reg: reg, CPUs: 4}, f)},
		)
		for _, idx := range []int{0, 1, 3} {
			ref := &Chunk{Reg: reg, Index: idx, Total: 4, BoundaryFrac: f, WriteFrac: 0.3}
			twins = append(twins, twin{"Chunk",
				&Chunk{Reg: reg, Index: idx, Total: 4, BoundaryFrac: f, WriteFrac: 0.3},
				func(r *sim.Rand, _ mem.CPUID) (mem.GPage, uint8, mem.AccessKind) { return floatChunkNext(ref, r) }})
		}
		ref := &CodeWalk{Reg: code, HotFrac: f, HotLines: 96, LoopLines: 512, JumpEvery: 300}
		twins = append(twins, twin{"CodeWalk",
			&CodeWalk{Reg: code, HotFrac: f, HotLines: 96, LoopLines: 512, JumpEvery: 300},
			func(r *sim.Rand, _ mem.CPUID) (mem.GPage, uint8, mem.AccessKind) { return floatCodeWalkNext(ref, r) }})
	}
	for i, tw := range twins {
		tw.coin.reset()
		a, b := sim.NewRand(uint64(i+1)), sim.NewRand(uint64(i+1))
		for n := 0; n < 100000; n++ {
			cpu := mem.CPUID(n % 4)
			p, ln, k := tw.coin.next(a, cpu)
			wp, wln, wk := tw.float(b, cpu)
			if p != wp || ln != wln || k != wk {
				t.Fatalf("%s (twin %d) step %d: thresholds drew (%d, %d, %v), float coins (%d, %d, %v)",
					tw.name, i, n, p, ln, k, wp, wln, wk)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("%s (twin %d): the twins consumed different draws", tw.name, i)
		}
	}
}
