package obs

import (
	"encoding/json"
	"sync"
	"testing"

	"ccnuma/internal/sim"
)

// TestKindExhaustive pins the Kind enumeration's export contract: every kind
// below kindCount has a distinct, non-empty name, and each round-trips
// through MarshalJSON/UnmarshalJSON — so a flight-recorder dump parsed back
// from a failure manifest names the same kinds the run emitted.
func TestKindExhaustive(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no proper name (%q)", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k

		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("kind %s: marshal: %v", name, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("kind %s: unmarshal %s: %v", name, b, err)
		}
		if back != k {
			t.Fatalf("kind %s round-tripped to %s", name, back)
		}
	}
	var bad Kind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &bad); err == nil {
		t.Fatal("unknown kind name unmarshalled without error")
	}
}

// TestRecorderRing pins the flight recorder's ring semantics: before wrapping
// the dump is the complete history, after wrapping it is the newest Depth
// events oldest-first with the truncation marker counting what fell off.
func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	if !r.On() || r.Depth() != 4 {
		t.Fatalf("On=%v Depth=%d, want enabled depth-4 ring", r.On(), r.Depth())
	}

	rec := func(i int64) {
		e := NewEvent(KindPageMigrated)
		e.At, e.Page = sim.Time(i), i
		r.Record(e)
	}
	rec(0)
	rec(1)
	events, dropped := r.Dump()
	if len(events) != 2 || dropped != 0 {
		t.Fatalf("partial ring dump = %d events, %d dropped; want 2, 0", len(events), dropped)
	}
	for i := int64(2); i < 10; i++ {
		rec(i)
	}
	events, dropped = r.Dump()
	if len(events) != 4 || dropped != 6 {
		t.Fatalf("wrapped dump = %d events, %d dropped; want 4, 6", len(events), dropped)
	}
	for i, e := range events {
		if want := int64(6 + i); e.Page != want {
			t.Fatalf("dump[%d].Page = %d, want %d (newest 4, oldest first)", i, e.Page, want)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
}

// TestNilRecorderIsSafeAndOff mirrors the nil-tracer contract for the
// recorder: the disabled state is a nil pointer every method tolerates.
func TestNilRecorderIsSafeAndOff(t *testing.T) {
	var r *Recorder
	if r.On() || r.Depth() != 0 || r.Total() != 0 {
		t.Fatal("nil recorder does not report disabled")
	}
	r.Record(NewEvent(KindPageMigrated)) // must not panic
	if events, dropped := r.Dump(); events != nil || dropped != 0 {
		t.Fatal("nil recorder dumped history")
	}
	if NewRecorder(0) != nil || NewRecorder(-3) != nil {
		t.Fatal("non-positive depth did not return the disabled recorder")
	}
}

// TestRecorderSteadyStateZeroAlloc pins the bounded-memory claim: once the
// ring is full, recording overwrites in place and allocates nothing.
func TestRecorderSteadyStateZeroAlloc(t *testing.T) {
	r := NewRecorder(32)
	e := NewEvent(KindTLBShootdown)
	for i := 0; i < 64; i++ {
		r.Record(e) // wrap the ring before measuring
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Record(e) }); allocs != 0 {
		t.Fatalf("steady-state Record allocates %.1f times per call, want 0", allocs)
	}
}

// TestFlightTracerRecordsWithoutBuffering checks a tracer whose one output
// is the flight recorder: events reach the ring (stamped by the clock on
// EmitNow) and nothing else holds them — once the ring has wrapped, an
// emission allocates nothing, keeping flight recording O(depth) in memory.
func TestFlightTracerRecordsWithoutBuffering(t *testing.T) {
	now := sim.Time(77)
	r := NewRecorder(8)
	tr := NewTracer(func() sim.Time { return now }, r.Record)
	if !tr.On() {
		t.Fatal("flight tracer reports Off")
	}
	tr.EmitNow(NewEvent(KindCounterReset))
	now = 99
	tr.Emit(Event{Kind: KindPageMigrated, At: 88})
	events, dropped := r.Dump()
	if len(events) != 2 || dropped != 0 {
		t.Fatalf("ring holds %d events (%d dropped), want 2 (0 dropped)", len(events), dropped)
	}
	if events[0].At != 77 || events[0].Kind != KindCounterReset {
		t.Fatalf("EmitNow did not stamp the clock: %+v", events[0])
	}
	if events[1].At != 88 || events[1].Kind != KindPageMigrated {
		t.Fatalf("Emit altered the event: %+v", events[1])
	}
	for i := 0; i < 16; i++ {
		tr.EmitNow(NewEvent(KindTLBShootdown)) // wrap the ring before measuring
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.EmitNow(NewEvent(KindTLBShootdown)) }); allocs != 0 {
		t.Fatalf("flight tracer allocates %.1f times per emission, want 0", allocs)
	}
}

// TestRecorderAttachedToBufferingTracer checks the tee: a full
// event-collection run can feed the same ring, so failure dumps exist whether
// or not the run also kept its complete trace.
func TestRecorderAttachedToBufferingTracer(t *testing.T) {
	r := NewRecorder(8)
	l := &Log{}
	tr := NewTracer(nil, Tee(l.Add, r.Record))
	tr.Emit(Event{Kind: KindTLBShootdown, At: 5})
	tr.Emit(Event{Kind: KindCounterReset, At: 6})
	if l.Len() != 2 {
		t.Fatalf("log kept %d events, want 2", l.Len())
	}
	events, _ := r.Dump()
	if len(events) != 2 || events[0] != l.Events()[0] || events[1] != l.Events()[1] {
		t.Fatalf("teed recorder saw %+v, log %+v", events, l.Events())
	}

	// A nil output drops out of the tee: the ring alone stays attached.
	solo := NewTracer(nil, Tee(nil, r.Record))
	solo.Emit(Event{Kind: KindPageMigrated})
	if events, _ := r.Dump(); len(events) != 3 {
		t.Fatalf("tee with a nil output lost the ring: %d events", len(events))
	}
}

// TestRecorderConcurrentRecordAndDump is the harness-timeout case: an
// abandoned run keeps emitting into its ring while the harness dumps it.
// Run under -race in `make ci`; the mutex-guarded ring must lose nothing.
func TestRecorderConcurrentRecordAndDump(t *testing.T) {
	const writers, perWriter = 2, 500
	r := NewRecorder(64)
	tr := NewTracer(nil, r.Record)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := NewEvent(KindHotPageInterrupt)
				e.At, e.Node = sim.Time(i), w
				tr.Emit(e)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if events, _ := r.Dump(); len(events) > r.Depth() {
			t.Fatalf("dump returned %d events from a %d-deep ring", len(events), r.Depth())
		}
	}
	wg.Wait()

	const want = writers * perWriter
	if got := r.Total(); got != want {
		t.Fatalf("recorder saw %d events, want %d", got, want)
	}
	events, dropped := r.Dump()
	if len(events) != r.Depth() || dropped != want-uint64(r.Depth()) {
		t.Fatalf("dump = %d events, %d dropped; want %d, %d",
			len(events), dropped, r.Depth(), want-uint64(r.Depth()))
	}
}

// BenchmarkRecorderDisabled proves the disabled flight recorder costs one
// branch: the guard is On() on a nil *Recorder, exactly the tracer contract.
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		if r.On() {
			e := NewEvent(KindPageMigrated)
			e.At = sim.Time(i)
			r.Record(e)
		}
	}
}

// BenchmarkRecorderEnabled measures a steady-state (wrapped-ring) record.
func BenchmarkRecorderEnabled(b *testing.B) {
	r := NewRecorder(256)
	e := NewEvent(KindPageMigrated)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.On() {
			e.At = sim.Time(i)
			r.Record(e)
		}
	}
}
