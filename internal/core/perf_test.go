package core

import (
	"testing"

	"ccnuma/internal/workload"
)

// hotPathSystem builds a started system whose event queue is an endless
// pinned-CPU step chain: first-touch placement (no pager), no tracer, no
// sampler, work budgets large enough that no process exits. After a warmup
// that faults in the working set and grows every buffer to capacity, the
// remaining steady state is exactly the per-reference hot path the tentpole
// makes allocation-free.
func hotPathSystem(tb testing.TB) *System {
	tb.Helper()
	sys, err := NewSystem(tinySpec(workload.SchedPinned, 1<<62), Options{
		Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sys.start()
	for i := 0; i < 200000; i++ {
		if !sys.eng.Step() {
			tb.Fatal("event queue drained during warmup")
		}
	}
	return sys
}

// TestStepHotPathZeroAllocs is the tentpole's acceptance gate: once warm,
// dispatching step events allocates nothing — no closures per schedule, no
// per-access garbage anywhere under step.
func TestStepHotPathZeroAllocs(t *testing.T) {
	sys := hotPathSystem(t)
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 2000; i++ {
			sys.eng.Step()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state step path allocates %.2f per 2000 events, want 0", avg)
	}
}

// BenchmarkStepHotPath measures one step-event dispatch (scheduling, TLB,
// caches, memory system, counters); allocs/op is the headline number.
func BenchmarkStepHotPath(b *testing.B) {
	sys := hotPathSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.eng.Step()
	}
}
