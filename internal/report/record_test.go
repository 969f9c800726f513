package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ccnuma/internal/core"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// TestHarnessSpansLifecycle walks two runs through the harness: one fails
// and is answered once more from the memo, the other succeeds and is
// answered once more from the memo. The records must say so and the
// timeline drawn from them must show each stage.
func TestHarnessSpansLifecycle(t *testing.T) {
	h := NewHarness(0.05, 1)
	h.KeepGoing = true
	poison := 6 * sim.Millisecond
	h.PreRun = func(_ string, opt core.Options) {
		if opt.Duration == poison {
			panic("injected failure")
		}
	}
	bad, good := core.Options{Duration: poison}, core.Options{Duration: 5 * sim.Millisecond}
	if res := h.Run("engineering", bad); !res.Failed {
		t.Fatalf("poisoned run did not fail: %+v", res)
	}
	h.Run("engineering", bad) // the failure, answered from the memo
	if res := h.Run("engineering", good); res.Failed {
		t.Fatalf("healthy run failed: %+v", res)
	}
	h.Run("engineering", good) // the success, answered from the memo

	recs := h.Records()
	byID := map[string][]Record{}
	for _, r := range recs {
		byID[r.ID] = append(byID[r.ID], r)
		if len(r.ID) != 16 || r.Workload != "engineering" {
			t.Fatalf("record missing identity: %+v", r)
		}
		if r.WallEnd < r.WallStart || r.WallWait < 0 {
			t.Fatalf("record ends before it starts: %+v", r)
		}
	}
	var got []string
	for _, rs := range byID {
		var states []string
		for _, r := range rs {
			states = append(states, r.State)
		}
		got = append(got, strings.Join(states, ","))
	}
	sort.Strings(got)
	if want := "done,memo-hit failed,memo-hit"; strings.Join(got, " ") != want {
		t.Fatalf("records per run = %v, want %s", got, want)
	}
	for _, rs := range byID {
		if rs[0].State == StateDone && (rs[1].Elapsed != rs[0].Elapsed || rs[1].Policy != rs[0].Policy) {
			t.Fatalf("memo hit does not describe the memoized result: %+v vs %+v", rs[1], rs[0])
		}
	}
	if f := FailedRuns(recs); len(f) != 1 || f[0].State != StateFailed {
		t.Fatalf("failed runs = %+v, want the one failed simulation", f)
	}

	states := map[string]int{}
	for _, s := range spans(recs) {
		states[s.state]++
		if s.end < s.start {
			t.Fatalf("slice ends before it starts: %+v", s)
		}
		if (s.state == StateMemoHit) != (s.lane == memoLane) {
			t.Fatalf("%s slice drawn on lane %d: %+v", s.state, s.lane, s)
		}
	}
	want := map[string]int{"queued": 2, StateFailed: 1, "running": 1, StateMemoHit: 2}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("timeline slices = %v, want %v", states, want)
	}
}

// TestWriteSpansChromeTrace checks the wire format and the lanes: valid
// trace-event JSON, a harness process, one thread per lane plus the memo
// thread, two complete events per simulation and one per memo hit, all
// carrying the record's identity. Two overlapping simulations take two
// lanes; one that starts after both reuses lane 0.
func TestWriteSpansChromeTrace(t *testing.T) {
	recs := []Record{
		{Workload: "engineering", ID: "00ab", State: StateDone, WallWait: 500, WallStart: 1000, WallEnd: 9000},
		{Workload: "raytrace", ID: "00cd", State: StateMemoHit, WallStart: 2000, WallEnd: 2200},
		{Workload: "splash", ID: "00ef", State: StateTimeout, WallStart: 3000, WallEnd: 5000},
		{Workload: "pmake", ID: "00f1", State: StateDone, WallWait: 1000, WallStart: 6000, WallEnd: 7000},
		{Workload: "database", ID: "0101", State: StateDone, WallStart: 9500, WallEnd: 9900},
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
			if e.Args["id"] == "" || e.Args["state"] == "" || len(e.Args) != 2 {
				t.Fatalf("slice args = %v, want its id and state", e.Args)
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
		"splash queued": 1, "splash timeout": 1, "pmake queued": 1, "pmake running": 1,
		"database running": 0,
	} {
		if got, ok := lane[name]; !ok || got != want {
			t.Fatalf("%q on lane %d (present %v), want lane %d", name, got, ok, want)
		}
	}
}

// TestFailedRunsFiltersFailures: a failed or timed-out simulation is a
// failed run, and a memo hit on it is not another one; a run that failed
// under a cancelled context, was evicted and then succeeded still counts its
// failed simulation.
func TestFailedRunsFiltersFailures(t *testing.T) {
	recs := []Record{
		{ID: "a", State: StateFailed},
		{ID: "a", State: StateMemoHit},
		{ID: "b", State: StateFailed},
		{ID: "b", State: StateDone},
		{ID: "c", State: StateTimeout},
		{ID: "d", State: StateDone},
		{ID: "d", State: StateMemoHit},
	}
	var got []string
	for _, r := range FailedRuns(recs) {
		got = append(got, r.ID+"/"+r.State)
	}
	if want := "a/failed b/failed c/timeout"; strings.Join(got, " ") != want {
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
