package core

import (
	"testing"

	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// hotPathCase is one steady state of the per-event path: a started system
// warmed past its allocation transients (faulting in the working set,
// growing every buffer to capacity), then measured in windows of events.
// progress, when set, reads a counter that must advance in every window, so
// the path the case exists for is exercised by every measured iteration.
type hotPathCase struct {
	name     string
	spec     func() *workload.Spec
	opt      Options
	warm     int
	window   int
	runs     int
	progress func(*System) uint64
}

// hotPathCases cover the four shapes of the step chain: pinned first-touch
// (no pager, no tracer, never blocks), processes that block and are woken,
// a run collecting the miss trace, and a Mig/Rep run whose pager services a
// hot-page batch in every window.
var hotPathCases = []hotPathCase{
	{
		name:   "pinned-ft",
		spec:   func() *workload.Spec { return tinySpec(workload.SchedPinned, 1<<62) },
		opt:    Options{Seed: 1},
		warm:   200000,
		window: 2000,
		runs:   50,
	},
	{
		name: "blocking",
		spec: func() *workload.Spec {
			s := tinySpec(workload.SchedPinned, 1<<62)
			for _, ps := range s.Procs {
				g := ps.Gen
				g.BlockEvery, g.BlockDur = 300, 20*sim.Microsecond
			}
			return s
		},
		opt:    Options{Seed: 1},
		warm:   200000,
		window: 2000,
		runs:   50,
	},
	{
		name:     "trace",
		spec:     func() *workload.Spec { return tinySpec(workload.SchedPinned, 1<<62) },
		opt:      Options{Seed: 1, CollectTrace: true},
		warm:     200000,
		window:   2000,
		runs:     50,
		progress: func(s *System) uint64 { return uint64(s.tracer.Len()) },
	},
	{
		// Database at scale 0.25 runs 111k events; no gap between hot pages
		// after the first exceeds 2,661 events, so every window of the middle
		// third holds a batch. tinySpec's pager falls silent too early and
		// allocates on first replicas while it still runs.
		name:     "migrep",
		spec:     func() *workload.Spec { return workload.Database(0.25, 1) },
		opt:      Options{Seed: 1, Dynamic: true},
		warm:     37000,
		window:   2714,
		runs:     20,
		progress: func(s *System) uint64 { return s.pg.Actions.HotPages },
	},
}

// system builds the case's system, starts it and dispatches the warmup.
func (c hotPathCase) system(tb testing.TB) *System {
	tb.Helper()
	sys, err := NewSystem(c.spec(), c.opt)
	if err != nil {
		tb.Fatal(err)
	}
	sys.start()
	for i := 0; i < c.warm; i++ {
		if !sys.eng.Step() {
			tb.Fatal("event queue drained during warmup")
		}
	}
	return sys
}

// TestStepHotPathZeroAllocs is the hot path's allocation gate: once warm,
// dispatching events allocates nothing — no closures per schedule, no
// per-access garbage anywhere under step, the wake, pager-batch and trace
// paths included.
func TestStepHotPathZeroAllocs(t *testing.T) {
	for _, c := range hotPathCases {
		t.Run(c.name, func(t *testing.T) {
			sys := c.system(t)
			stalled := false
			avg := testing.AllocsPerRun(c.runs, func() {
				var before uint64
				if c.progress != nil {
					before = c.progress(sys)
				}
				for i := 0; i < c.window; i++ {
					sys.eng.Step()
				}
				if c.progress != nil && c.progress(sys) == before {
					stalled = true
				}
			})
			if stalled {
				t.Fatalf("a window of %d events did not advance the case's path", c.window)
			}
			if avg != 0 {
				t.Fatalf("steady-state step path allocates %.2f per %d events, want 0", avg, c.window)
			}
		})
	}
}

// BenchmarkStepHotPath measures one step-event dispatch (scheduling, TLB,
// caches, memory system, counters); allocs/op is the headline number.
func BenchmarkStepHotPath(b *testing.B) {
	sys := hotPathCases[0].system(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.eng.Step()
	}
}

// BenchmarkNewSystem measures building a machine: engineering at scale 0.01
// under Mig/Rep, the shape of a small served what-if, where the fixed cost
// of the caches, validity tables and frame allocator dominates. B/op is the
// headline number; building each spec is left out of the timing.
func BenchmarkNewSystem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spec := workload.Engineering(0.01, 1)
		b.StartTimer()
		if _, err := NewSystem(spec, Options{Seed: 1, Dynamic: true}); err != nil {
			b.Fatal(err)
		}
	}
}
