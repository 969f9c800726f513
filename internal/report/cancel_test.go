package report

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// waitForGoroutines polls until the process goroutine count drops back to at
// most base, failing the test if it never does — the leak detector for the
// harness's child run goroutines.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("simulation goroutine leaked: %d goroutines, started with %d", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHarnessTimeoutStopsSimulation is the regression test for the
// fire-and-abandon RunTimeout: a simulation that would run for a long time is
// timed out after 30ms, and its goroutine must actually exit (the old design
// abandoned it to burn CPU to the virtual deadline). Observed via the process
// goroutine count settling back to its pre-run level.
func TestHarnessTimeoutStopsSimulation(t *testing.T) {
	h := NewHarness(0.2, 1)
	h.KeepGoing = true
	h.RunTimeout = 30 * time.Millisecond

	base := runtime.NumGoroutine()
	// 10 virtual seconds of the engineering workload takes far longer than
	// 30ms of wall clock to simulate, so the deadline always fires mid-run.
	res := h.Run("engineering", core.Options{Duration: 10 * sim.Second})
	if !res.Failed {
		t.Fatal("timed-out run did not return the failure placeholder")
	}
	waitForGoroutines(t, base)

	failures := FailedRuns(h.Records())
	if len(failures) != 1 || !failures[0].TimedOut {
		t.Fatalf("failures = %+v, want one timed-out record", failures)
	}
	if !strings.Contains(failures[0].Error, "deadline exceeded") {
		t.Fatalf("failure error does not name the deadline: %q", failures[0].Error)
	}
}

// TestHarnessRunContextCancel: cancelling the caller's context mid-run stops
// the simulation and leaves no goroutine behind.
func TestHarnessRunContextCancel(t *testing.T) {
	h := NewHarness(0.2, 1)
	h.KeepGoing = true

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	h.PreRun = func(string, core.Options) { close(started) }
	go func() {
		<-started
		cancel()
	}()

	base := runtime.NumGoroutine()
	res := h.RunContext(ctx, "engineering", core.Options{Duration: 10 * sim.Second})
	if !res.Failed {
		t.Fatal("cancelled run did not return the failure placeholder")
	}
	waitForGoroutines(t, base)

	failures := FailedRuns(h.Records())
	if len(failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(failures))
	}
	if failures[0].TimedOut {
		t.Fatal("a cancel was misreported as a timeout")
	}
}

// TestExecuteSuccess: the memo-free entry point returns a normal result with
// its done record, and repeated calls accumulate no per-request state on the
// harness.
func TestExecuteSuccess(t *testing.T) {
	h := NewHarness(0.05, 1)
	build := func() *workload.Spec {
		b, err := workload.ByName("engineering")
		if err != nil {
			t.Fatal(err)
		}
		return b(0.05, 1)
	}
	res, last, err := h.Execute(context.Background(), "engineering",
		build, core.Options{Seed: 1, Duration: 5 * sim.Millisecond})
	if err != nil || last.State != StateDone {
		t.Fatalf("Execute failed: %v / %+v", err, last)
	}
	if res == nil || res.Elapsed <= 0 {
		t.Fatalf("Execute produced no measurements: %+v", res)
	}
	if last.Elapsed != res.Elapsed || len(last.ID) != 16 {
		t.Fatalf("Execute's record does not describe its result: %+v", last)
	}
	// Identical options must produce a fresh simulation (caching is the
	// caller's policy), so two Executes both count as executed.
	if _, _, err := h.Execute(context.Background(), "engineering",
		build, core.Options{Seed: 1, Duration: 5 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if executed, _ := h.Counters(); executed != 2 {
		t.Fatalf("executed = %d, want 2 (Execute never memoizes)", executed)
	}
	if recs := h.Records(); len(recs) != 0 {
		t.Fatalf("Execute grew the harness's records: %+v", recs)
	}
}

// TestExecuteFailureManifest: a panicking run comes back as a failed Record
// with the flight-recorder dump attached, returned to the caller instead of
// appended to the harness (a server's Harness lives forever).
func TestExecuteFailureManifest(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.RecorderDepth = 32
	h.PreRun = func(string, core.Options) { panic("injected server-side failure") }
	build := func() *workload.Spec {
		b, _ := workload.ByName("engineering")
		return b(0.05, 1)
	}
	res, fail, err := h.Execute(context.Background(), "what-if-17",
		build, core.Options{Seed: 9, Dynamic: true, Duration: 5 * sim.Millisecond})
	if err == nil || fail.State != StateFailed || res != nil {
		t.Fatalf("Execute did not fail: res=%v fail=%v err=%v", res, fail, err)
	}
	if fail.Workload != "what-if-17" || !strings.Contains(fail.Error, "injected server-side failure") {
		t.Fatalf("failure manifest = %+v", fail)
	}
	if fail.Fingerprint == "" || !strings.Contains(fail.Fingerprint, "Dynamic:true") {
		t.Fatalf("fingerprint does not identify the options: %q", fail.Fingerprint)
	}
	if len(h.Records()) != 0 {
		t.Fatal("Execute appended to the harness's records")
	}
	// Cancelled contexts surface as errors.Is-checkable causes.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.PreRun = nil
	_, fail2, err2 := h.Execute(ctx, "what-if-18", build, core.Options{Seed: 9})
	if !errors.Is(err2, context.Canceled) || fail2.State != StateFailed {
		t.Fatalf("pre-cancelled Execute: err=%v fail=%+v", err2, fail2)
	}
}

// TestExecuteSinkAndRecorderTeed is numasimd's streaming-plus-recorder case:
// the caller's EventSink and the harness's flight recorder share the run's
// one event output. A run that emits and then panics must have streamed every
// event to the caller, and its failure dump must be the ring's last
// RecorderDepth events with the rest counted as dropped.
func TestExecuteSinkAndRecorderTeed(t *testing.T) {
	const depth, emitted = 4, 7
	h := NewHarness(0.05, 1)
	h.RecorderDepth = depth
	h.PreRun = func(_ string, opt core.Options) {
		for i := int64(0); i < emitted; i++ {
			e := obs.NewEvent(obs.KindPageReplicated)
			e.At, e.Page = sim.Time(i*10), i
			opt.EventSink(e)
		}
		panic("injected failure after streaming")
	}
	var streamed []obs.Event
	build := func() *workload.Spec {
		b, _ := workload.ByName("engineering")
		return b(0.05, 1)
	}
	_, fail, err := h.Execute(context.Background(), "stream-and-record", build, core.Options{
		Seed: 9, Duration: 5 * sim.Millisecond,
		EventSink: func(e obs.Event) { streamed = append(streamed, e) },
	})
	if err == nil {
		t.Fatalf("Execute did not fail: fail=%v err=%v", fail, err)
	}
	if len(streamed) != emitted {
		t.Fatalf("caller's sink saw %d events, want %d", len(streamed), emitted)
	}
	for i, e := range streamed {
		if e.Page != int64(i) {
			t.Fatalf("streamed[%d].Page = %d, want %d", i, e.Page, i)
		}
	}
	if len(fail.Events) != depth || fail.EventsDropped != emitted-depth {
		t.Fatalf("failure dump = %d events, %d dropped; want %d, %d",
			len(fail.Events), fail.EventsDropped, depth, emitted-depth)
	}
	for i, e := range fail.Events {
		if e != streamed[emitted-depth+i] {
			t.Fatalf("dump[%d] = %+v, want the stream's %+v", i, e, streamed[emitted-depth+i])
		}
	}
}
