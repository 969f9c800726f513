package report

import (
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
	failures := h.Failures()
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
	if f.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retries configured)", f.Attempts)
	}
}

// A transiently failing run succeeds within its retry budget and leaves no
// failure record.
func TestHarnessRetriesTransientFailure(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.Retries = 2
	h.RetryBackoff = time.Millisecond
	var calls atomic.Int64
	h.PreRun = func(string, core.Options) {
		if calls.Add(1) <= 2 {
			panic("transient")
		}
	}
	res := h.Run("engineering", core.Options{Duration: 5 * sim.Millisecond})
	if res.Failed || res.Elapsed <= 0 {
		t.Fatalf("run failed despite retry budget: %+v", res)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if len(h.Failures()) != 0 {
		t.Fatalf("failures recorded for a run that recovered: %+v", h.Failures())
	}
}

// A run exceeding RunTimeout fails with TimedOut set. The child goroutine is
// joined — the deadline propagates into the engine loop, so it exits
// cooperatively (here the delay sits in the PreRun hook, so the join waits
// out the hook; TestHarnessTimeoutStopsSimulation covers a genuinely long
// simulation). The outcome is the attempt's own, never a race between it
// and the deadline, so the harness must not return before the hook does.
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
		t.Fatal("the harness returned before joining the timed-out attempt")
	}
	if !res.Failed {
		t.Fatal("timed-out run did not return the failure placeholder")
	}
	failures := h.Failures()
	if len(failures) != 1 || !failures[0].TimedOut {
		t.Fatalf("failures = %+v, want one timed-out record", failures)
	}
}

// Hammer the harness from many goroutines with injected panics and retries at
// once — run under -race, this shakes out locking mistakes in the memo,
// failure, and metrics paths.
func TestHarnessFailureHammer(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.KeepGoing = true
	h.Retries = 1
	h.RetryBackoff = time.Millisecond
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
	// Failures are evicted from the memo, so a failed key re-executes for
	// later callers; successes stay memoized, so each key executes at least
	// once and at most once per failure plus one final success.
	if executed < uint64(len(durations)) {
		t.Fatalf("executed = %d, want at least one per key (%d)", executed, len(durations))
	}
	maxExec := uint64(len(durations)) + uint64(len(h.Failures()))
	if executed > maxExec {
		t.Fatalf("executed = %d, want <= keys + failures = %d", executed, maxExec)
	}
	// Each failed execution hands its placeholder to at least its owner (plus
	// any callers that had already joined the in-flight run).
	if failed.Load() < int64(len(h.Failures())) {
		t.Fatalf("failed reads %d < failure records %d", failed.Load(), len(h.Failures()))
	}
}

// A failure under -keep-going must not poison the memo: the failing call
// returns the placeholder, but the key is evicted so the next call for the
// same options re-runs the simulation and succeeds. (The placeholder was
// once left memoized, so one transient failure made every later query of
// that run return Failed for the life of the harness.)
func TestHarnessFailureEvictedFromMemo(t *testing.T) {
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
	if len(h.Failures()) != 1 {
		t.Fatalf("failures = %d, want 1", len(h.Failures()))
	}

	second := h.Run("engineering", opt)
	if second.Failed {
		t.Fatal("second run returned the memoized failure placeholder; the key was not evicted")
	}
	if second.Elapsed <= 0 {
		t.Fatalf("second run produced no measurements: %+v", second)
	}
	executed, hits := h.Counters()
	if executed != 2 || hits != 0 {
		t.Fatalf("executed=%d hits=%d, want 2 executions and no memo hits", executed, hits)
	}

	// The success is memoized normally: a third call is a memo hit.
	third := h.Run("engineering", opt)
	if third != second {
		t.Fatal("third call did not share the memoized success")
	}
	if _, hits := h.Counters(); hits != 1 {
		t.Fatalf("memo hits = %d, want 1", hits)
	}
}
