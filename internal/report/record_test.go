package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// TestHarnessSpansLifecycle walks one run through a failure, a retry backoff,
// a successful attempt, and a memo hit, and requires the records to say so
// and the timeline drawn from them to show each stage.
func TestHarnessSpansLifecycle(t *testing.T) {
	h := NewHarness(0.05, 1)
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

	recs := h.Records()
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s/%d", r.State, r.Attempts))
		if r.ID != recs[0].ID || len(r.ID) != 16 || r.Workload != "engineering" {
			t.Fatalf("record missing identity: %+v", r)
		}
		if r.WallEnd < r.WallStart || r.WallWait < 0 {
			t.Fatalf("record ends before it starts: %+v", r)
		}
	}
	if want := "failed/1 done/2 memo-hit/0"; strings.Join(got, " ") != want {
		t.Fatalf("records = %v, want %s", got, want)
	}
	if recs[2].Elapsed != recs[1].Elapsed || recs[2].Policy != recs[1].Policy {
		t.Fatalf("memo hit does not describe the memoized result: %+v vs %+v", recs[2], recs[1])
	}
	if f := FailedRuns(recs); len(f) != 0 {
		t.Fatalf("a run that recovered is listed as failed: %+v", f)
	}

	states := map[string]int{}
	for _, s := range spans(recs) {
		states[s.state]++
		if s.end < s.start {
			t.Fatalf("slice ends before it starts: %+v", s)
		}
		switch s.state {
		case StateMemoHit:
			if s.lane != memoLane {
				t.Fatalf("memo hit drawn on a worker lane: %+v", s)
			}
		case StateFailed:
			if s.rec.Attempts != 1 {
				t.Fatalf("failed slice attempt = %d, want 1", s.rec.Attempts)
			}
		case "running":
			if s.rec.Attempts != 2 {
				t.Fatalf("running slice attempt = %d, want 2", s.rec.Attempts)
			}
		}
	}
	for _, want := range []string{"queued", StateFailed, "retry", "running", StateMemoHit} {
		if states[want] == 0 {
			t.Fatalf("timeline missing a %q slice: %v", want, states)
		}
	}
}

// TestWriteSpansChromeTrace checks the wire format and the lanes: valid
// trace-event JSON, a harness process, one thread per lane plus the memo
// thread, two complete events per attempt and one per memo hit, all carrying
// the record's identity. Two overlapping attempts take two lanes; an attempt
// that starts after both reuses lane 0.
func TestWriteSpansChromeTrace(t *testing.T) {
	recs := []Record{
		{Workload: "engineering", ID: "00ab", State: StateDone, Attempts: 1, WallWait: 500, WallStart: 1000, WallEnd: 9000},
		{Workload: "raytrace", ID: "00cd", State: StateMemoHit, WallStart: 2000, WallEnd: 2200},
		{Workload: "splash", ID: "00ef", State: StateTimeout, Attempts: 1, WallStart: 3000, WallEnd: 5000},
		{Workload: "splash", ID: "00ef", State: StateDone, Attempts: 2, WallWait: 1000, WallStart: 6000, WallEnd: 7000},
		{Workload: "database", ID: "0101", State: StateDone, Attempts: 1, WallStart: 9500, WallEnd: 9900},
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, recs); err != nil {
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
	slices := 0
	lane := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			names = append(names, e.Args["name"].(string))
		case "X":
			slices++
			lane[e.Name] = e.TID
			if e.Args["id"] == "" || e.Args["state"] == "" {
				t.Fatalf("slice lost its identity: %v", e.Args)
			}
			if e.Name == "splash running" && e.Args["attempt"].(float64) != 2 {
				t.Fatalf("running slice lost its attempt: %v", e.Args)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if got, want := strings.Join(names, ","), "harness,lane0,lane1,memo"; got != want {
		t.Fatalf("metadata names %q, want %q", got, want)
	}
	if slices != 2*4+1 {
		t.Fatalf("slice events = %d, want %d", slices, 2*4+1)
	}
	for name, want := range map[string]int{
		"engineering queued": 0, "engineering running": 0, "raytrace memo-hit": memoLane,
		"splash queued": 1, "splash timeout": 1, "splash retry": 1, "splash running": 1,
		"database running": 0,
	} {
		if got, ok := lane[name]; !ok || got != want {
			t.Fatalf("%q on lane %d (present %v), want lane %d", name, got, ok, want)
		}
	}
}

// TestFailedRunsPicksLastAttempt: a failed run is named once, by its last
// attempt; an attempt that was retried is not a failed run, and a run that
// failed, was evicted and then succeeded still counts its first execution.
func TestFailedRunsPicksLastAttempt(t *testing.T) {
	recs := []Record{
		{ID: "a", State: StateFailed, Attempts: 1},
		{ID: "a", State: StateMemoHit},
		{ID: "a", State: StateTimeout, Attempts: 2},
		{ID: "a", State: StateDone, Attempts: 1},
		{ID: "b", State: StateFailed, Attempts: 1},
		{ID: "b", State: StateDone, Attempts: 2},
		{ID: "c", State: StateFailed, Attempts: 1},
	}
	var got []string
	for _, r := range FailedRuns(recs) {
		got = append(got, fmt.Sprintf("%s/%d", r.ID, r.Attempts))
	}
	if want := "a/2 c/1"; strings.Join(got, " ") != want {
		t.Fatalf("failed runs = %v, want %s", got, want)
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
	failures := FailedRuns(h.Records())
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
	failures := FailedRuns(h.Records())
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
