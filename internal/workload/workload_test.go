package workload

import (
	"math"
	"reflect"
	"testing"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
	"ccnuma/internal/trace"
)

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		build, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := build(0.3, 7)
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if spec.Pages <= 0 || spec.Pages > 1<<20 {
			t.Errorf("%s: %d pages", name, spec.Pages)
		}
		// Regions must tile [0, Pages) without overlap.
		covered := 0
		for _, r := range spec.Regions {
			covered += r.N
		}
		if covered != spec.Pages {
			t.Errorf("%s: regions cover %d of %d pages", name, covered, spec.Pages)
		}
	}
}

func TestByNameAliases(t *testing.T) {
	for _, alias := range []string{"engr", "db"} {
		if _, err := ByName(alias); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestLayoutDensePages(t *testing.T) {
	l := &Layout{}
	a := l.NewRegion("a", 10, DataRegion, false)
	b := l.NewRegion("b", 5, CodeRegion, true)
	if a.Start != 0 || b.Start != 10 || l.Pages() != 15 {
		t.Fatalf("layout: a=%d b=%d pages=%d", a.Start, b.Start, l.Pages())
	}
	if a.Page(9) != 9 || b.Page(0) != 10 {
		t.Fatal("page addressing wrong")
	}
}

func TestRegionPageBoundsPanic(t *testing.T) {
	l := &Layout{}
	r := l.NewRegion("a", 3, DataRegion, false)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Page did not panic")
		}
	}()
	r.Page(3)
}

func TestGeneratorsStayInBounds(t *testing.T) {
	for _, name := range Names() {
		build, _ := ByName(name)
		spec := build(0.3, 3)
		for pi := range spec.Procs {
			g := spec.Procs[pi].Gen
			for i := 0; i < 20000; i++ {
				st := g.Next(mem.CPUID(i % 8))
				if st.Kind != StepAccess {
					continue
				}
				if int(st.Page) >= spec.Pages {
					t.Fatalf("%s proc %d: page %d out of %d", name, pi, st.Page, spec.Pages)
				}
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	build, _ := ByName("raytrace")
	s1 := build(0.3, 99)
	s2 := build(0.3, 99)
	g1, g2 := s1.Procs[2].Gen, s2.Procs[2].Gen
	for i := 0; i < 5000; i++ {
		a, b := g1.Next(2), g2.Next(2)
		if a != b {
			t.Fatalf("step %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestGenExitAfter(t *testing.T) {
	l := &Layout{}
	code := l.NewRegion("c", 4, CodeRegion, true)
	data := l.NewRegion("d", 4, DataRegion, false)
	g := &Gen{
		Code:      &CodeWalk{Reg: code},
		Data:      []Source{&Sequential{Reg: data}},
		Weights:   []float64{1},
		ExitAfter: 100,
	}
	g.Reset(1)
	exits := 0
	for i := 0; i < 300; i++ {
		if g.Next(0).Kind == StepExit {
			exits++
		}
	}
	if exits != 200 { // every step after the budget is an exit
		t.Fatalf("exit steps = %d", exits)
	}
}

func TestGenBlocks(t *testing.T) {
	l := &Layout{}
	code := l.NewRegion("c", 4, CodeRegion, true)
	data := l.NewRegion("d", 4, DataRegion, false)
	g := &Gen{
		Code:       &CodeWalk{Reg: code},
		Data:       []Source{&Sequential{Reg: data}},
		Weights:    []float64{1},
		BlockEvery: 50,
		BlockDur:   1000,
	}
	g.Reset(1)
	blocks := 0
	for i := 0; i < 10000; i++ {
		st := g.Next(0)
		if st.Kind == StepBlock {
			blocks++
			if g.LastBlock() <= 0 {
				t.Fatal("non-positive block duration")
			}
		}
	}
	if blocks < 100 || blocks > 400 {
		t.Fatalf("blocks = %d, want ~200", blocks)
	}
}

func TestGenKernelFraction(t *testing.T) {
	l := &Layout{}
	code := l.NewRegion("c", 4, CodeRegion, true)
	data := l.NewRegion("d", 4, DataRegion, false)
	kcode := l.NewRegion("kc", 4, KernelRegion, true)
	kdata := l.NewRegion("kd", 4, KernelRegion, true)
	g := &Gen{
		Code:     &CodeWalk{Reg: code},
		Data:     []Source{&Sequential{Reg: data}},
		Weights:  []float64{1},
		KCode:    &CodeWalk{Reg: kcode},
		KData:    []Source{&Sequential{Reg: kdata}},
		KWeights: []float64{1}, KernelFrac: 0.4, KernelBurst: 50,
	}
	g.Reset(1)
	kernel := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next(0).Kind == StepAccess && g.Kernel() {
			kernel++
		}
	}
	frac := float64(kernel) / n
	if frac < 0.3 || frac > 0.5 {
		t.Fatalf("kernel fraction = %v, want ~0.4", frac)
	}
}

func TestSourcesRespectRegions(t *testing.T) {
	l := &Layout{}
	reg := l.NewRegion("r", 8, DataRegion, true)
	srcs := []Source{
		&Sequential{Reg: reg, WriteFrac: 0.5},
		&Window{Reg: reg, W: 3, MoveEvery: 5, WriteFrac: 0.1},
		&Hot{Reg: reg, WriteFrac: 0.2, Stride: 3},
		&Chunk{Reg: reg, Index: 1, Total: 3, BoundaryFrac: 0.2, WriteFrac: 0.3},
		&Sync{Reg: reg, WriteFrac: 0.6},
		&PerCPU{Reg: reg, CPUs: 4, WriteFrac: 0.5},
	}
	r := newTestRand()
	for si, src := range srcs {
		src.reset()
		for i := 0; i < 5000; i++ {
			page, line, kind := src.next(r, mem.CPUID(i%4))
			if page < reg.Start || page >= reg.Start+mem.GPage(reg.N) {
				t.Fatalf("source %d: page %d outside region", si, page)
			}
			if int(line) >= mem.LinesPerPage {
				t.Fatalf("source %d: line %d", si, line)
			}
			if kind == mem.InstrFetch {
				t.Fatalf("source %d: data source produced an ifetch", si)
			}
		}
	}
}

func TestCodeWalkEmitsFetchesInBounds(t *testing.T) {
	l := &Layout{}
	reg := l.NewRegion("c", 6, CodeRegion, true)
	w := &CodeWalk{Reg: reg, HotFrac: 0.5, HotLines: 32, LoopLines: 64, JumpEvery: 100}
	w.reset()
	r := newTestRand()
	for i := 0; i < 10000; i++ {
		page, _, kind := w.next(r, 0)
		if kind != mem.InstrFetch {
			t.Fatal("code walk produced non-ifetch")
		}
		if page < reg.Start || page >= reg.Start+mem.GPage(reg.N) {
			t.Fatalf("fetch outside region: %d", page)
		}
	}
}

func TestChunkDisjointInteriors(t *testing.T) {
	l := &Layout{}
	reg := l.NewRegion("grid", 12, DataRegion, true)
	r := newTestRand()
	seen := map[int]map[mem.GPage]bool{}
	for idx := 0; idx < 4; idx++ {
		c := &Chunk{Reg: reg, Index: idx, Total: 4} // no boundary traffic
		seen[idx] = map[mem.GPage]bool{}
		for i := 0; i < 2000; i++ {
			p, _, _ := c.next(r, 0)
			seen[idx][p] = true
		}
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			for p := range seen[a] {
				if seen[b][p] {
					t.Fatalf("chunks %d and %d share page %d without boundary traffic", a, b, p)
				}
			}
		}
	}
}

func TestScaled(t *testing.T) {
	if scaled(100, 0.5) != 50 || scaled(1, 0.01) != 1 || scaled(10, 2) != 20 {
		t.Fatal("scaled() wrong")
	}
}

// TestCheckScale: positive scales up to trace.MaxPages build workloads;
// zero, negative, non-finite and larger ones are refused.
func TestCheckScale(t *testing.T) {
	for _, ok := range []float64{0.01, 1, trace.MaxPages} {
		if err := CheckScale(ok); err != nil {
			t.Fatalf("CheckScale(%v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, trace.MaxPages + 1} {
		if err := CheckScale(bad); err == nil {
			t.Fatalf("CheckScale(%v) accepted a scale no workload can be built at", bad)
		}
	}
}

// TestFootprintBounded: a spec whose footprint passes trace.MaxPages is
// invalid. Splash sizes its machine by its footprint, so at scale 1000 it
// once got past core's memory check and panicked sizing its line tables.
func TestFootprintBounded(t *testing.T) {
	s := Splash(1000, 1)
	if s.Pages <= trace.MaxPages {
		t.Fatalf("splash at scale 1000 has %d pages; the test needs more than %d", s.Pages, trace.MaxPages)
	}
	if err := s.Validate(); err == nil {
		t.Fatalf("a %d-page spec validated", s.Pages)
	}
}

// TestStepFitsInRegisters guards Step's size: past four fields the compiler
// spills every reference to the stack between Gen.Next and the access.
func TestStepFitsInRegisters(t *testing.T) {
	if n := reflect.TypeOf(Step{}).NumField(); n > 4 {
		t.Fatalf("workload.Step has %d fields, want at most 4: see the comment on Step "+
			"(internal/workload/workload.go) and move the new field onto Gen behind an accessor", n)
	}
}

// TestWeightedPickMatchesFloat checks that the integer cumulative thresholds
// pick the same source, from the same draw, as comparing Float64 against
// the float cumulative shares.
func TestWeightedPickMatchesFloat(t *testing.T) {
	weightSets := [][]float64{
		{1},
		{0.4, 0.3, 0.2, 0.1},
		{3, 1},
		{0.7, 0.2, 0.1},
		{1, 0, 2},
		{1e-9, 1, 1e-9},
		{0.15, 0.25, 0.35, 0.25},
	}
	src := sim.NewRand(3)
	for _, ws := range weightSets {
		srcs := make([]Source, len(ws))
		for i := range srcs {
			srcs[i] = &Sync{WriteFrac: float64(i)} // distinct, comparable values
		}
		w := newWeighted(srcs, ws)
		cum := make([]float64, len(ws))
		sum := 0.0
		for i, x := range ws {
			sum += x
			cum[i] = sum
		}
		for i := range cum {
			cum[i] /= sum
		}
		floatPick := func(r *sim.Rand) Source {
			u := r.Float64()
			for i, c := range cum {
				if u < c {
					return srcs[i]
				}
			}
			return srcs[len(srcs)-1]
		}
		for i := 0; i < 200000; i++ {
			seed := src.Uint64()
			a, b := sim.NewRand(seed), sim.NewRand(seed)
			if got, want := w.pick(a), floatPick(b); got != want || a.Uint64() != b.Uint64() {
				t.Fatalf("weights %v seed %#x: integer pick %v, float pick %v", ws, seed, got, want)
			}
		}
	}
}
