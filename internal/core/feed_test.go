package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ccnuma/internal/obs"
	"ccnuma/internal/workload"
)

// goroutinesBackTo fails unless the goroutine count falls back to base.
// Run joins its helper before returning, so the count is normally back at
// once; the grace period only absorbs the test runtime's own goroutines.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines left running, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStepFeedHelperExitsAfterRun: a completed run leaves no helper behind.
func TestStepFeedHelperExitsAfterRun(t *testing.T) {
	base := runtime.NumGoroutine()
	if _, err := Run(tinySpec(workload.SchedAffinity, 60000), Options{Seed: 7, Dynamic: true}); err != nil {
		t.Fatal(err)
	}
	goroutinesBackTo(t, base)
}

// TestStepFeedHelperExitsAfterCancel: a RunContext cancelled mid-run (from
// the event sink, which the simulation calls synchronously) leaves no helper
// behind.
func TestStepFeedHelperExitsAfterCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	_, err := RunContext(ctx, tinySpec(workload.SchedAffinity, 60000), Options{
		Seed: 7, Dynamic: true,
		EventSink: func(obs.Event) {
			if events++; events == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a cancelled run", err)
	}
	goroutinesBackTo(t, base)
}

// TestStepFeedHelperExitsAfterPanic: a process whose generator panics (its
// code region is empty, so the first instruction fetch is out of range)
// panics the run on the caller's goroutine, with the generator's panic
// value, whichever goroutine made the chunk; and the run leaves no helper
// behind.
func TestStepFeedHelperExitsAfterPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	spec := tinySpec(workload.SchedAffinity, 60000)
	g := spec.Procs[2].Gen
	g.Code = &workload.CodeWalk{Reg: workload.Region{Name: "empty"}}
	g.Reset(1)
	var got any
	func() {
		defer func() { got = recover() }()
		Run(spec, Options{Seed: 7})
	}()
	if err, ok := got.(error); !ok || !strings.Contains(err.Error(), "outside region empty") {
		t.Fatalf("run recovered %v, want the generator's out-of-range panic", got)
	}
	goroutinesBackTo(t, base)
}

// TestStepFeedRespawnsMatchConsumerOnly runs pmake, whose processes exit
// and respawn (re-seeding a generator the helper may be filling), once
// through Run with its helper and once driving the engine directly, where
// the consumer makes every chunk itself. The per-CPU ledgers must agree,
// and processes must have respawned. Under -race it also checks the feed's
// claim protocol.
func TestStepFeedRespawnsMatchConsumerOnly(t *testing.T) {
	opt := Options{Seed: 3, Dynamic: true}
	res, err := Run(workload.Pmake(0.01, 3), opt)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(workload.Pmake(0.01, 3), opt)
	if err != nil {
		t.Fatal(err)
	}
	sys.start()
	sys.eng.RunUntil(sys.deadline)
	if sys.completedAt == 0 || res.Elapsed != sys.completedAt {
		t.Fatalf("elapsed %v with the helper, %v without", res.Elapsed, sys.completedAt)
	}
	var steps uint64
	for i, c := range sys.cpus {
		steps += c.steps
		bd := c.bd
		if tot := bd.Total(); tot < res.Elapsed {
			bd.Idle += res.Elapsed - tot
		}
		if !reflect.DeepEqual(bd, res.PerCPU[i]) {
			t.Fatalf("cpu %d: ledgers differ:\n%+v\nvs\n%+v", i, bd, res.PerCPU[i])
		}
	}
	if res.Steps != steps {
		t.Fatalf("steps = %d with the helper, %d without", res.Steps, steps)
	}
	var firstLives uint64
	for _, p := range workload.Pmake(0.01, 3).Procs {
		firstLives += p.Gen.ExitAfter
	}
	if steps <= firstLives {
		t.Fatalf("%d steps, no more than the processes' first lives (%d): nothing respawned", steps, firstLives)
	}
}
