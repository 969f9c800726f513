package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ccnuma/internal/obs"
	"ccnuma/internal/workload"
)

// TestRunContextBackgroundMatchesRun pins that context plumbing is free for
// the common case: a background context changes nothing about the results.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	base, err := Run(tinySpec(workload.SchedAffinity, 60000), Options{Seed: 7, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	ctxRes, err := RunContext(context.Background(), tinySpec(workload.SchedAffinity, 60000),
		Options{Seed: 7, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	a := fmt.Sprintf("%+v|%d|%d|%+v", base.Agg, base.Steps, base.Events, base.VM)
	b := fmt.Sprintf("%+v|%d|%d|%+v", ctxRes.Agg, ctxRes.Steps, ctxRes.Events, ctxRes.VM)
	if a != b {
		t.Fatalf("RunContext(Background) diverged from Run:\n%s\nvs\n%s", a, b)
	}
}

// TestRunContextCancelMidRun cancels from inside the run — the event sink is
// called synchronously by the simulation, so cancelling there is a
// deterministic mid-run cancellation — and requires RunContext to stop early
// and surface a wrapped context.Canceled instead of a result.
func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	res, err := RunContext(ctx, tinySpec(workload.SchedAffinity, 60000), Options{
		Seed: 7, Dynamic: true,
		EventSink: func(obs.Event) {
			events++
			if events == 3 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a partial result")
	}

	// The run must actually have stopped near the cancellation point rather
	// than simulating to the deadline: a full run emits far more events.
	full, err := Run(tinySpec(workload.SchedAffinity, 60000),
		Options{Seed: 7, Dynamic: true, CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.ObsEvents.Len() <= events {
		t.Fatalf("full run emitted %d events, cancelled saw %d — nothing was cut short",
			full.ObsEvents.Len(), events)
	}
}

// TestRunContextPreCancelled: a context cancelled before the run starts must
// fail without simulating anything.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, tinySpec(workload.SchedPinned, 60000), Options{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatal("pre-cancelled run returned a result")
	}
}

// TestEventSinkNeutralAndComplete proves the streaming sink is observation
// only — results with and without it are identical — and that it sees the
// exact event sequence the event log records.
func TestEventSinkNeutralAndComplete(t *testing.T) {
	base, err := Run(tinySpec(workload.SchedAffinity, 60000),
		Options{Seed: 7, Dynamic: true, CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []obs.Event
	got, err := Run(tinySpec(workload.SchedAffinity, 60000), Options{
		Seed: 7, Dynamic: true,
		EventSink: func(e obs.Event) { streamed = append(streamed, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	a := fmt.Sprintf("%+v|%d|%d|%+v", base.Agg, base.Steps, base.Events, base.VM)
	b := fmt.Sprintf("%+v|%d|%d|%+v", got.Agg, got.Steps, got.Events, got.VM)
	if a != b {
		t.Fatalf("EventSink changed results:\n%s\nvs\n%s", a, b)
	}
	if got.ObsEvents != nil {
		t.Fatal("sink-only run exposed a buffered tracer")
	}
	if len(streamed) != base.ObsEvents.Len() {
		t.Fatalf("sink saw %d events, the log recorded %d",
			len(streamed), base.ObsEvents.Len())
	}
	// Emission order (pre-Sort) is not pinned here, only the multiset size;
	// per-kind counts catch a sink that drops a category.
	for k := obs.Kind(0); k < 12; k++ {
		want := base.ObsEvents.CountKind(k)
		gotK := 0
		for _, e := range streamed {
			if e.Kind == k {
				gotK++
			}
		}
		if gotK != want {
			t.Errorf("kind %v: sink saw %d, the log recorded %d", k, gotK, want)
		}
	}

	// With both set, the tracer's one output tees the log and the sink, so
	// they see the same sequence: sorted the way the log sorts itself, the
	// sink's events equal the log's exactly.
	var teed []obs.Event
	both, err := Run(tinySpec(workload.SchedAffinity, 60000), Options{
		Seed: 7, Dynamic: true, CollectEvents: true,
		EventSink: func(e obs.Event) { teed = append(teed, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(teed) == 0 {
		t.Fatal("teed sink saw no events")
	}
	sort.SliceStable(teed, func(i, j int) bool { return teed[i].At < teed[j].At })
	if !reflect.DeepEqual(teed, both.ObsEvents.Events()) {
		t.Fatalf("sink and log diverge: %d vs %d events", len(teed), both.ObsEvents.Len())
	}
	if !reflect.DeepEqual(both.ObsEvents.Events(), base.ObsEvents.Events()) {
		t.Fatal("adding a sink changed the collected log")
	}
}

// TestEventSinkAbsentFromFingerprint pins the memo contract for the sink: a
// function pointer must not make every streaming request's cache key unique.
func TestEventSinkAbsentFromFingerprint(t *testing.T) {
	a := Options{Seed: 9, Dynamic: true}
	b := a
	b.EventSink = func(obs.Event) {}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("EventSink leaked into the fingerprint:\n%s\n%s",
			a.Fingerprint(), b.Fingerprint())
	}
}
