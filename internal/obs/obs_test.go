package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ccnuma/internal/sim"
)

func TestKindNames(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should render as unknown")
	}
	b, err := json.Marshal(KindPageMigrated)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"page-migrated"` {
		t.Errorf("kind JSON = %s, want \"page-migrated\"", b)
	}
}

func TestNilTracerIsSafeAndOff(t *testing.T) {
	var tr *Tracer
	if tr.On() {
		t.Error("nil tracer reports On")
	}
	tr.Emit(NewEvent(KindPageMigrated)) // must not panic
	tr.EmitNow(NewEvent(KindTLBShootdown))
	var l *Log
	l.Sort()
	if l.Len() != 0 || l.Events() != nil || l.CountKind(KindPageMigrated) != 0 {
		t.Error("nil log holds events")
	}
	if Tee(nil, nil) != nil {
		t.Error("Tee of no outputs is not nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewTracer accepted a nil output")
		}
	}()
	NewTracer(nil, nil)
}

func TestTracerEmitAndCount(t *testing.T) {
	l := &Log{}
	tr := NewTracer(nil, l.Add)
	if !tr.On() {
		t.Fatal("enabled tracer reports Off")
	}
	e := NewEvent(KindPageMigrated)
	e.At, e.Page, e.From, e.To = 100, 7, 0, 1
	tr.Emit(e)
	e2 := NewEvent(KindTLBShootdown)
	e2.At = 50
	tr.Emit(e2)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if l.CountKind(KindPageMigrated) != 1 || l.CountKind(KindPolicyDecision) != 0 {
		t.Error("CountKind miscounts")
	}
	l.Sort()
	if l.Events()[0].Kind != KindTLBShootdown {
		t.Error("Sort did not order by time")
	}
}

func TestTracerEmitNowUsesClock(t *testing.T) {
	now := sim.Time(1234)
	l := &Log{}
	tr := NewTracer(func() sim.Time { return now }, l.Add)
	tr.EmitNow(NewEvent(KindCounterReset))
	now = 5678
	tr.EmitNow(NewEvent(KindCounterReset))
	evs := l.Events()
	if evs[0].At != 1234 || evs[1].At != 5678 {
		t.Errorf("EmitNow stamped %v/%v, want 1234/5678", evs[0].At, evs[1].At)
	}
}

func TestTracerSortIsStable(t *testing.T) {
	l := &Log{}
	for i := 0; i < 5; i++ {
		e := NewEvent(KindPolicyDecision)
		e.At, e.Page = 10, int64(i)
		l.Add(e)
	}
	l.Sort()
	for i, e := range l.Events() {
		if e.Page != int64(i) {
			t.Fatalf("equal-time events reordered: %v", l.Events())
		}
	}
}

// fixtureLog emits four events, one out of time order, through a tracer
// into a log.
func fixtureLog() *Log {
	l := &Log{}
	tr := NewTracer(nil, l.Add)
	e := NewEvent(KindHotPageInterrupt)
	e.At, e.CPU, e.Node, e.Trigger, e.Sharing, e.N = 2000, 3, 1, 96, 24, 2
	tr.Emit(e)
	e = NewEvent(KindPolicyDecision)
	e.At, e.CPU, e.Node, e.Page = 2100, 3, 1, 42
	e.Action, e.Reason = "migrate", ""
	e.Miss, e.MissOther, e.Writes, e.Trigger, e.Sharing = 97, 12, 0, 96, 24
	tr.Emit(e)
	e = NewEvent(KindPageMigrated)
	e.At, e.Page, e.From, e.To, e.Node = 2200, 42, 0, 1, 1
	tr.Emit(e)
	e = NewEvent(KindCounterReset)
	e.At, e.Trigger, e.N = 1000, 96, 1 // out of order on purpose
	tr.Emit(e)
	return l
}

func TestWriteJSONLDeterministicAndOrdered(t *testing.T) {
	var a, b bytes.Buffer
	if err := fixtureLog().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := fixtureLog().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL export not byte-deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	var first struct {
		At   int64  `json:"at"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.At != 1000 || first.Kind != "counter-reset" {
		t.Errorf("first line = %+v, want the t=1000 counter-reset (time-sorted)", first)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureLog().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   json.RawMessage `json:"ts"`
			PID  int             `json:"pid"`
			TID  int             `json:"tid"`
			Args map[string]any  `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	meta, inst := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "i":
			inst++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	// 4 events: machine track (counter-reset) + node1 with cpu3 and the
	// kernel tid (page-migrated has no CPU) -> 2 process names, 3 threads.
	if meta != 5 {
		t.Errorf("metadata events = %d, want 5", meta)
	}
	if inst != 4 {
		t.Errorf("instant events = %d, want 4", inst)
	}
	// The policy decision carries its counters in args.
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" && e.Name == "policy-decision" {
			found = true
			if e.Args["miss"].(float64) != 97 || e.Args["action"].(string) != "migrate" {
				t.Errorf("policy-decision args = %v", e.Args)
			}
		}
	}
	if !found {
		t.Error("policy-decision instant missing")
	}

	var again bytes.Buffer
	if err := fixtureLog().WriteChromeTrace(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("chrome export not byte-deterministic")
	}
}

func TestChromeTS(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
	}
	for _, c := range cases {
		if got := ChromeTS(c.ns); got != c.want {
			t.Errorf("ChromeTS(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestSamplerDeltasAndCSV(t *testing.T) {
	s := NewSampler(sim.Millisecond, 2, 1)
	cur := CPUSample{Busy: 300, Idle: 700, Pager: 40, Steps: 11}
	prev := CPUSample{Busy: 100, Idle: 500, Pager: 10, Steps: 4}
	d := cur.Sub(prev)
	if d != (CPUSample{Busy: 200, Idle: 200, Pager: 30, Steps: 7}) {
		t.Errorf("CPUSample.Sub = %+v", d)
	}
	cd := CounterSample{Recorded: 10, Counted: 8, Hot: 2, Resets: 1}.Sub(CounterSample{Recorded: 4, Counted: 4})
	if cd != (CounterSample{Recorded: 6, Counted: 4, Hot: 2, Resets: 1}) {
		t.Errorf("CounterSample.Sub = %+v", cd)
	}

	s.Add(Sample{
		At: sim.Millisecond, Fired: 10, Pending: 3,
		CPU:      []CPUSample{d, {}},
		Node:     []NodeSample{{Free: 5, Base: 2, Replica: 1}},
		Counters: cd,
	})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want header + 1 row", len(lines))
	}
	wantHeader := "at_ns,fired,pending,recorded,counted,hot,resets," +
		"cpu0_busy_ns,cpu0_idle_ns,cpu0_pager_ns,cpu0_steps," +
		"cpu1_busy_ns,cpu1_idle_ns,cpu1_pager_ns,cpu1_steps," +
		"node0_free,node0_base,node0_replica"
	if lines[0] != wantHeader {
		t.Errorf("CSV header:\n got %s\nwant %s", lines[0], wantHeader)
	}
	wantRow := "1000000,10,3,6,4,2,1,200,200,30,7,0,0,0,0,5,2,1"
	if lines[1] != wantRow {
		t.Errorf("CSV row:\n got %s\nwant %s", lines[1], wantRow)
	}
}

func TestSamplerEmptySeriesStillHasHeader(t *testing.T) {
	s := NewSampler(sim.Millisecond, 1, 1)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "at_ns,") {
		t.Errorf("empty series CSV = %q, want header", buf.String())
	}
}

func TestSamplerPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("zero interval", func() { NewSampler(0, 1, 1) })
	expectPanic("dim mismatch", func() {
		NewSampler(1, 2, 2).Add(Sample{CPU: make([]CPUSample, 1), Node: make([]NodeSample, 2)})
	})
}

func TestNilSamplerAccessors(t *testing.T) {
	var s *Sampler
	if s.Len() != 0 || s.Samples() != nil {
		t.Error("nil sampler accessors not safe")
	}
}

// BenchmarkTracerDisabled proves the instrumented hot path costs one branch
// when tracing is off: the guard is On() on a nil *Tracer.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		if tr.On() {
			e := NewEvent(KindPageMigrated)
			e.At = sim.Time(i)
			tr.Emit(e)
		}
	}
}

// BenchmarkTracerEnabled measures the cost of an actual emission into a
// bounded output (a wrapped flight-recorder ring).
func BenchmarkTracerEnabled(b *testing.B) {
	tr := NewTracer(nil, NewRecorder(256).Record)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.On() {
			e := NewEvent(KindPageMigrated)
			e.At = sim.Time(i)
			tr.Emit(e)
		}
	}
}
