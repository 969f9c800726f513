package report

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/sim"
)

// One poisoned run must not take down the rest of a concurrent grid: the
// panic is isolated to its worker, the other runs complete normally, and the
// failure is recorded with enough context to replay it.
func TestHarnessPanicIsolation(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.Workers = 4
	h.KeepGoing = true
	poison := 7 * sim.Millisecond
	h.PreRun = func(wl string, opt core.Options) {
		if opt.Duration == poison {
			panic("injected failure")
		}
	}

	durations := []sim.Time{5 * sim.Millisecond, 6 * sim.Millisecond, poison, 8 * sim.Millisecond}
	results := make([]*core.Result, len(durations))
	var wg sync.WaitGroup
	for i, d := range durations {
		wg.Add(1)
		go func(i int, d sim.Time) {
			defer wg.Done()
			results[i] = h.Run("engineering", core.Options{Duration: d})
		}(i, d)
	}
	wg.Wait()

	for i, d := range durations {
		if d == poison {
			if !results[i].Failed {
				t.Fatal("poisoned run did not return the failure placeholder")
			}
			continue
		}
		if results[i].Failed || results[i].Elapsed <= 0 {
			t.Fatalf("healthy run %d caught the poisoned run's failure: %+v", i, results[i])
		}
	}
	failures := FailedRuns(h.Records())
	if len(failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(failures))
	}
	f := failures[0]
	if f.Workload != "engineering" || !strings.Contains(f.Error, "injected failure") {
		t.Fatalf("failure record = %+v", f)
	}
	if f.Fingerprint == "" || !strings.Contains(f.Fingerprint, "Duration:7.000ms") {
		t.Fatalf("fingerprint does not identify the failing options: %q", f.Fingerprint)
	}
}

// A run exceeding RunTimeout fails with TimedOut set. The child goroutine is
// joined — the deadline propagates into the engine loop, so it exits
// cooperatively (here the delay sits in the PreRun hook, so the join waits
// out the hook; TestHarnessTimeoutStopsSimulation covers a genuinely long
// simulation). The outcome is the run's own, never a race between it and
// the deadline, so the harness must not return before the hook does.
func TestHarnessRunTimeout(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.KeepGoing = true
	h.RunTimeout = 20 * time.Millisecond
	var hookDone atomic.Bool
	h.PreRun = func(string, core.Options) {
		time.Sleep(300 * time.Millisecond)
		hookDone.Store(true)
	}
	res := h.Run("engineering", core.Options{Duration: 5 * sim.Millisecond})
	if !hookDone.Load() {
		t.Fatal("the harness returned before joining the timed-out run")
	}
	if !res.Failed {
		t.Fatal("timed-out run did not return the failure placeholder")
	}
	failures := FailedRuns(h.Records())
	if len(failures) != 1 || !failures[0].TimedOut {
		t.Fatalf("failures = %+v, want one timed-out record", failures)
	}
}

// Hammer the harness from many goroutines with injected panics at once —
// run under -race, this shakes out locking mistakes in the memo, failure,
// and metrics paths.
func TestHarnessFailureHammer(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.KeepGoing = true
	var calls atomic.Int64
	h.PreRun = func(string, core.Options) {
		if calls.Add(1)%3 == 0 {
			panic("injected")
		}
	}

	const goroutines = 16
	durations := []sim.Time{3 * sim.Millisecond, 4 * sim.Millisecond, 5 * sim.Millisecond, 6 * sim.Millisecond}
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine hits every key: most calls share the memoized
			// (or in-flight) run, so successes and failures both propagate.
			for _, d := range durations {
				res := h.Run("engineering", core.Options{Duration: d})
				if res == nil {
					t.Error("Run returned nil")
					return
				}
				if res.Failed {
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	executed, hits := h.Counters()
	// Every call either executed a simulation or was served by the memo (or
	// an in-flight run it joined).
	if executed+hits != goroutines*uint64(len(durations)) {
		t.Fatalf("executed %d + memo hits %d != %d calls", executed, hits, goroutines*len(durations))
	}
	// Successes and failures both stay memoized, so each key executes
	// exactly once.
	if executed != uint64(len(durations)) {
		t.Fatalf("executed = %d, want one per key (%d)", executed, len(durations))
	}
	// Each failed execution hands its placeholder to at least its owner (plus
	// every caller that joined the in-flight run or hit the memo later).
	if failed.Load() < int64(len(FailedRuns(h.Records()))) {
		t.Fatalf("failed reads %d < failure records %d", failed.Load(), len(FailedRuns(h.Records())))
	}
}

// A run's failure stays in the memo like a success: a run that failed once,
// even a failure that would not recur, answers every later call with the
// same placeholder and is not simulated again. (Failed keys were once
// evicted, so every -keep-going re-query of a failed run simulated the
// failure again.)
func TestHarnessFailureStaysMemoized(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.KeepGoing = true
	var calls atomic.Int64
	h.PreRun = func(string, core.Options) {
		if calls.Add(1) == 1 {
			panic("transient")
		}
	}
	opt := core.Options{Duration: 5 * sim.Millisecond}

	first := h.Run("engineering", opt)
	if !first.Failed {
		t.Fatal("first run did not fail as injected")
	}
	second := h.Run("engineering", opt)
	if second != first {
		t.Fatalf("second call got %+v, want the memoized failure placeholder", second)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("the failed run was simulated %d times, want 1", got)
	}
	if executed, hits := h.Counters(); executed != 1 || hits != 1 {
		t.Fatalf("executed=%d hits=%d, want 1 execution and 1 memo hit", executed, hits)
	}
	if n := len(FailedRuns(h.Records())); n != 1 {
		t.Fatalf("failures = %d, want 1", n)
	}

	// Other keys are unaffected and memoize their successes as before.
	other := core.Options{Duration: 6 * sim.Millisecond}
	if res := h.Run("engineering", other); res.Failed || res != h.Run("engineering", other) {
		t.Fatal("a healthy key did not run once and share its result")
	}
}

// A failure that would recur on every run, asked for twice, is simulated
// once: the first caller runs it and panics, and the second panics with the
// same text from the memo without a simulation of its own.
func TestHarnessDeterministicFailureRunsOnce(t *testing.T) {
	h := NewHarness(0.05, 1)
	var calls atomic.Int64
	h.PreRun = func(string, core.Options) {
		calls.Add(1)
		panic("always")
	}
	run := func() (msg any) {
		defer func() { msg = recover() }()
		h.Run("engineering", core.Options{Duration: 5 * sim.Millisecond})
		return nil
	}
	first, second := run(), run()
	if first == nil || second == nil {
		t.Fatalf("failing run did not panic: first %v, second %v", first, second)
	}
	if first != second {
		t.Fatalf("the memoized failure panicked with %q, want the first caller's %q", second, first)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("simulations = %d, want 1", got)
	}
	if executed, hits := h.Counters(); executed != 1 || hits != 1 {
		t.Fatalf("executed=%d hits=%d, want 1 execution and 1 memo hit", executed, hits)
	}
}

// A failure under the owner's own cancelled context says nothing about the
// run, so it is the one failure evicted from the memo: the next caller
// simulates the run afresh.
func TestHarnessCancelledFailureEvicted(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.KeepGoing = true
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	h.PreRun = func(string, core.Options) {
		if calls.Add(1) == 1 {
			cancel()
		}
	}
	opt := core.Options{Duration: 5 * sim.Millisecond}

	if res := h.RunContext(ctx, "engineering", opt); !res.Failed {
		t.Fatal("the run under a cancelled context did not fail")
	}
	second := h.Run("engineering", opt)
	if second.Failed || second.Elapsed <= 0 {
		t.Fatalf("the call after a cancelled owner got %+v, want a fresh simulation", second)
	}
	if executed, hits := h.Counters(); executed != 2 || hits != 0 {
		t.Fatalf("executed=%d hits=%d, want 2 executions and no memo hit", executed, hits)
	}
	if h.Run("engineering", opt) != second {
		t.Fatal("the success after the eviction was not memoized")
	}
}
