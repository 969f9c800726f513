package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// spanStates collects the distinct states present in a span list.
func spanStates(spans []Span) map[string]int {
	m := map[string]int{}
	for _, s := range spans {
		m[s.State]++
	}
	return m
}

// TestHarnessSpansLifecycle walks one run through a failure, a retry backoff,
// a successful attempt, and a memo hit, and requires the span timeline to
// show each stage.
func TestHarnessSpansLifecycle(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.CollectSpans = true
	h.Retries = 1
	h.RetryBackoff = time.Millisecond
	var calls atomic.Int64
	h.PreRun = func(string, core.Options) {
		if calls.Add(1) == 1 {
			panic("transient")
		}
	}
	opt := core.Options{Duration: 5 * sim.Millisecond}
	if res := h.Run("engineering", opt); res.Failed {
		t.Fatalf("run failed despite retry budget: %+v", res)
	}
	h.Run("engineering", opt) // answered from the memo

	spans := h.Spans()
	states := spanStates(spans)
	for _, want := range []string{SpanQueued, SpanFailed, SpanRetry, SpanRunning, SpanMemoHit} {
		if states[want] == 0 {
			t.Fatalf("timeline missing a %q span: %v", want, states)
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		if s.ID == "" || s.Workload != "engineering" {
			t.Fatalf("span missing identity: %+v", s)
		}
		switch s.State {
		case SpanMemoHit:
			if s.Slot != -1 {
				t.Fatalf("memo hit rendered on a worker slot: %+v", s)
			}
		case SpanFailed:
			if s.Attempt != 1 {
				t.Fatalf("failed span attempt = %d, want 1", s.Attempt)
			}
		case SpanRunning:
			if s.Attempt != 2 {
				t.Fatalf("running span attempt = %d, want 2", s.Attempt)
			}
		}
	}
}

// TestSpansDisabledByDefault pins the zero-cost default: without
// CollectSpans, Run leaves no timeline behind.
func TestSpansDisabledByDefault(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.Run("engineering", core.Options{Duration: 5 * sim.Millisecond})
	if spans := h.Spans(); len(spans) != 0 {
		t.Fatalf("spans recorded without CollectSpans: %+v", spans)
	}
}

// TestWriteSpansChromeTrace checks the wire format: valid trace-event JSON,
// a harness process, one thread per slot plus the memo thread, and complete
// events carrying the run identity.
func TestWriteSpansChromeTrace(t *testing.T) {
	spans := []Span{
		{Workload: "engineering", ID: "00ab", State: SpanQueued, Slot: 0, Start: 0, End: 1500},
		{Workload: "engineering", ID: "00ab", State: SpanRunning, Attempt: 1, Slot: 0, Start: 1500, End: 9000},
		{Workload: "raytrace", ID: "00cd", State: SpanMemoHit, Slot: -1, Start: 2000, End: 2200},
	}
	var buf bytes.Buffer
	if err := WriteSpansChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("spans trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var names []string
	slices, memoTID := 0, false
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			names = append(names, e.Args["name"].(string))
		case "X":
			slices++
			if e.Name == "raytrace memo-hit" {
				memoTID = e.TID == memoSlotTID
			}
			if e.Name == "engineering running" && e.Args["attempt"].(float64) != 1 {
				t.Fatalf("running span lost its attempt: %v", e.Args)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"harness", "slot0", "memo"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("metadata names %q missing %q", joined, want)
		}
	}
	if slices != len(spans) {
		t.Fatalf("slice events = %d, want %d", slices, len(spans))
	}
	if !memoTID {
		t.Fatal("memo-hit span not rendered on the memo thread")
	}
}

// TestFailureManifestFlightRecorder checks the flight recorder's dump lands
// in the failure record: the last RecorderDepth events with the truncation
// marker, serializable into the -keep-going manifest.
func TestFailureManifestFlightRecorder(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.KeepGoing = true
	h.RecorderDepth = 4
	h.PreRun = func(wl string, opt core.Options) {
		for i := int64(0); i < 6; i++ {
			e := obs.NewEvent(obs.KindPageMigrated)
			e.At, e.Page = sim.Time(i*100), i
			opt.EventSink(e)
		}
		panic("injected failure")
	}
	res := h.Run("engineering", core.Options{Duration: 5 * sim.Millisecond})
	if !res.Failed {
		t.Fatal("poisoned run did not fail")
	}
	failures := h.Failures()
	if len(failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(failures))
	}
	f := failures[0]
	if len(f.Events) != 4 || f.EventsDropped != 2 {
		t.Fatalf("flight dump = %d events, %d dropped; want the newest 4 with 2 dropped",
			len(f.Events), f.EventsDropped)
	}
	for i, e := range f.Events {
		if want := int64(2 + i); e.Page != want {
			t.Fatalf("dump[%d].Page = %d, want %d (oldest-first)", i, e.Page, want)
		}
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"events_dropped":2`) ||
		!strings.Contains(string(b), `"page-migrated"`) {
		t.Fatalf("manifest JSON lost the flight dump: %s", b)
	}
}

// TestFailureWithoutRecorderOmitsEvents pins the manifest's default shape:
// with RecorderDepth unset, failure records carry no events fields at all.
func TestFailureWithoutRecorderOmitsEvents(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.KeepGoing = true
	h.PreRun = func(string, core.Options) { panic("injected failure") }
	h.Run("engineering", core.Options{Duration: 5 * sim.Millisecond})
	failures := h.Failures()
	if len(failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(failures))
	}
	b, err := json.Marshal(failures[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "events") {
		t.Fatalf("manifest JSON grew events fields without a recorder: %s", b)
	}
}
