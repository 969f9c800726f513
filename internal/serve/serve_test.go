package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/fault"
)

// smallBody is a fast request: engineering at 5% scale for 5ms of simulated
// time completes in well under a second of wall clock.
const smallBody = `{"workload":"engineering","scale":0.05,"duration_ns":5000000}`

func post(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body))
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// waitUntil polls cond, failing the test if it never holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// directRun renders what the CLI would print for the same request — the
// byte-identity oracle.
func directRun(t *testing.T, body string) []byte {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	job, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(job.Spec(), job.Opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunByteIdentity: a served response carries exactly the bytes
// `numasim -json` would print, concurrent identical requests all get them
// (single-flight: one simulation), and a later identical request is a cache
// hit.
func TestRunByteIdentity(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Shutdown()
	want := directRun(t, smallBody)

	const n = 4
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(s, smallBody)
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("request %d: body differs from the CLI rendering:\n%s\nwant:\n%s", i, rec.Body.String(), want)
		}
	}
	if executed, _ := s.harness.Counters(); executed != 1 {
		t.Fatalf("executed = %d simulations for %d identical requests, want 1 (single-flight)", executed, n)
	}

	rec := post(s, smallBody)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("post-warm request: status %d", rec.Code)
	}
	if st := s.cache.stats(); st.Hits == 0 {
		t.Fatalf("cache stats after a warm request: %+v, want a hit", st)
	}
}

// TestBadRequests: malformed input is answered 400 before any capacity is
// spent, and never occupies a queue slot. Runs are serial, so the retired
// intra-run concurrency knobs "shards" and "workers" are unknown fields.
func TestBadRequests(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"workload":"engineering","bogus":1}`, ""},
		{"retired shards", `{"workload":"engineering","shards":4}`, `parse: json: unknown field "shards"`},
		{"retired workers", `{"workload":"engineering","workers":2}`, `parse: json: unknown field "workers"`},
		{"unknown workload", `{"workload":"no-such-thing"}`, ""},
		{"unknown policy", `{"workload":"engineering","policy":"wat"}`, ""},
		{"unknown config", `{"workload":"engineering","config":"wat"}`, ""},
		{"unknown metric", `{"workload":"engineering","metric":"wat"}`, ""},
		{"missing workload", `{}`, ""},
		{"negative scale", `{"workload":"engineering","scale":-1}`, ""},
		{"scale past the page bound", `{"workload":"engineering","scale":1e300}`, "workload: scale 1e+300 out of range (0, 1048576]"},
		{"scale past float64", `{"workload":"engineering","scale":1e400}`, ""},
		{"NaN scale", `{"workload":"engineering","scale":NaN}`, ""},
		{"bad fault config", `{"workload":"engineering","faults":{"drop_batch":2}}`, ""},
		{"slow factor past the cap", `{"workload":"engineering","faults":{"slow_node":1,"slow_factor":1e300}}`, "fault: SlowFactor 1e+300 above the cap of 1000"},
		{"not json", `hello`, ""},
	}
	for _, c := range cases {
		rec := post(s, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", c.name, rec.Code, rec.Body.String())
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body unparseable: %s", c.name, rec.Body.String())
		}
		if c.wantErr != "" && eb.Error != c.wantErr {
			t.Errorf("%s: error %q, want %q", c.name, eb.Error, c.wantErr)
		}
	}
	if rec := get(s, "/run"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", rec.Code)
	}
	if hw := s.AdmittedHighWater(); hw != 0 {
		t.Errorf("bad requests consumed queue slots: high water %d", hw)
	}
	if n := s.answered(http.StatusBadRequest).Load(); n != uint64(len(cases)) {
		t.Errorf("/healthz counts %d 400s, want %d", n, len(cases))
	}
}

// TestBackpressureQueueBound hammers a Workers=1, QueueDepth=2 server with
// 100 concurrent distinct requests while the one worker is wedged. Exactly
// capacity (3) requests may hold slots; the remaining 97 must be shed
// immediately with 429 + Retry-After — the bounded-admission invariant.
func TestBackpressureQueueBound(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	s.harness.PreRun = func(string, core.Options) { <-gate }

	const hammer = 100
	capacity := int64(s.cfg.Workers + s.cfg.QueueDepth)
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < hammer; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds: distinct cache keys, so single-flight cannot
			// collapse the load away.
			body := fmt.Sprintf(`{"workload":"engineering","scale":0.05,"duration_ns":5000000,"seed":%d}`, i+1)
			rec := post(s, body)
			switch rec.Code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if rec.Header().Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shed.Add(1)
			default:
				other.Add(1)
				t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
			}
		}(i)
	}
	// All shed responses return before the gate opens; the admitted ones are
	// parked. Then release the worker and let the admitted trio finish.
	waitUntil(t, "queue to fill and shedding to finish", func() bool {
		return s.admitted.Load() == capacity && shed.Load() == hammer-capacity
	})
	if rec := get(s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz with a full queue: status %d, want 503", rec.Code)
	}
	close(gate)
	wg.Wait()

	if ok.Load() != capacity || shed.Load() != hammer-capacity || other.Load() != 0 {
		t.Fatalf("ok=%d shed=%d other=%d, want %d/%d/0", ok.Load(), shed.Load(), other.Load(), capacity, hammer-capacity)
	}
	if hw := s.AdmittedHighWater(); hw != capacity {
		t.Fatalf("admitted high water %d, want exactly the declared capacity %d", hw, capacity)
	}
	if !s.Shutdown() {
		t.Fatal("drain of an idle server was not clean")
	}
}

// TestGracefulShutdownDrain: a drain sheds the queued request with 503,
// refuses new work with 503, lets the in-flight run finish with a
// byte-identical response, and reports a clean drain. Run under -race this
// also checks the admission/drain locking.
func TestGracefulShutdownDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	s.harness.PreRun = func(string, core.Options) { <-gate }
	want := directRun(t, smallBody)

	// A: admitted and running (wedged at the gate).
	var recA *httptest.ResponseRecorder
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		recA = post(s, smallBody)
	}()
	waitUntil(t, "A to start running", func() bool { return s.running.Load() == 1 })

	// B: admitted and queued behind A (distinct key so it needs its own run).
	var recB *httptest.ResponseRecorder
	doneB := make(chan struct{})
	go func() {
		defer close(doneB)
		recB = post(s, `{"workload":"engineering","scale":0.05,"duration_ns":5000000,"seed":7}`)
	}()
	waitUntil(t, "B to queue", func() bool { return s.admitted.Load() == 2 })

	clean := make(chan bool, 1)
	go func() { clean <- s.Shutdown() }()
	waitUntil(t, "drain to begin", func() bool { return s.Draining() })

	// B was queued, not running: the drain sheds it with 503.
	<-doneB
	if recB.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request during drain: status %d body %s", recB.Code, recB.Body.String())
	}
	// C arrives after the drain began: refused at the door.
	if rec := post(s, smallBody); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d", rec.Code)
	}
	if rec := get(s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", rec.Code)
	}

	// Release the worker: A must complete normally, byte-identical.
	close(gate)
	<-doneA
	if recA.Code != http.StatusOK {
		t.Fatalf("in-flight request killed by drain: status %d body %s", recA.Code, recA.Body.String())
	}
	if !bytes.Equal(recA.Body.Bytes(), want) {
		t.Fatalf("drained run's body differs from the CLI rendering:\n%s", recA.Body.String())
	}
	if !<-clean {
		t.Fatal("drain reported unclean despite completing within the deadline")
	}
	// Post-drain the server stays stopped.
	if rec := post(s, smallBody); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", rec.Code)
	}
}

// heldBody is a novel request the tests below wedge at the harness gate, so
// it holds a run slot for as long as the test wants.
const heldBody = `{"workload":"engineering","scale":0.05,"duration_ns":5000000,"seed":7}`

// holdSeed7 makes every run of seed 7 wait before simulating until the
// returned release is called. Deferring release after s.Shutdown lets a
// failing test drain instead of hanging on the gate.
func holdSeed7(s *Server) (release func()) {
	gate := make(chan struct{})
	s.harness.PreRun = func(_ string, opt core.Options) {
		if opt.Seed == 7 {
			<-gate
		}
	}
	return sync.OnceFunc(func() { close(gate) })
}

// TestCacheHitSkipsRunSlot: with the only worker held by a novel run, a
// request for a warm key is answered from the cache, byte-identical, before
// that run finishes. A hit simulates nothing and must not queue for a worker.
func TestCacheHitSkipsRunSlot(t *testing.T) {
	// The deadline bounds how long a hit that did queue for the worker
	// would wait before failing.
	s := New(Config{Workers: 1, RequestTimeout: 5 * time.Second})
	defer s.Shutdown()
	want := directRun(t, smallBody)
	if rec := post(s, smallBody); rec.Code != http.StatusOK {
		t.Fatalf("warming run: status %d body %s", rec.Code, rec.Body.String())
	}

	release := holdSeed7(s)
	defer release()
	held := make(chan int, 1)
	go func() { held <- post(s, heldBody).Code }()
	waitUntil(t, "the novel run to hold the worker", func() bool { return s.running.Load() == 1 })

	rec := post(s, smallBody)
	select {
	case <-held:
		t.Fatal("the held run finished before the gate opened")
	default:
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("warm key while the worker is busy: status %d body %s", rec.Code, rec.Body.String())
	}
	release()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held run: status %d", code)
	}
}

// TestFollowerHoldsNoRunSlot: a single-flight follower waits on the owner's
// run without taking a worker of its own, so with two workers a second
// novel run proceeds while the first (and its follower) are held.
func TestFollowerHoldsNoRunSlot(t *testing.T) {
	s := New(Config{Workers: 2, RequestTimeout: 5 * time.Second})
	defer s.Shutdown()
	release := holdSeed7(s)
	defer release()
	codes := make(chan int, 2)
	go func() { codes <- post(s, heldBody).Code }()
	waitUntil(t, "the owner to hold a worker", func() bool { return s.running.Load() == 1 })
	go func() { codes <- post(s, heldBody).Code }()
	waitUntil(t, "the follower to be admitted", func() bool { return s.admitted.Load() == 2 })

	if rec := post(s, smallBody); rec.Code != http.StatusOK {
		t.Fatalf("novel run beside a held owner and follower: status %d body %s", rec.Code, rec.Body.String())
	}
	if n := s.running.Load(); n != 1 {
		t.Fatalf("%d runs hold workers, want only the owner", n)
	}
	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("held owner or follower: status %d", code)
		}
	}
}

// TestQueuedOwnerDeadline: an owner still queued for a worker when its
// deadline passes is answered 504.
func TestQueuedOwnerDeadline(t *testing.T) {
	s := New(Config{Workers: 1, RequestTimeout: 200 * time.Millisecond})
	defer s.Shutdown()
	release := holdSeed7(s)
	defer release()
	held := make(chan int, 1)
	go func() { held <- post(s, heldBody).Code }()
	waitUntil(t, "the novel run to hold the worker", func() bool { return s.running.Load() == 1 })

	if rec := post(s, smallBody); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued owner past its deadline: status %d body %s, want 504", rec.Code, rec.Body.String())
	}
	release()
	<-held // past its own deadline too; only its completion matters here
}

// TestDrainDeadlineCancelsStragglers: a run that outlives DrainTimeout is
// cancelled cooperatively — the drain completes (unclean) instead of hanging,
// and the straggler gets a well-formed 503, not a dead connection.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1, DrainTimeout: 50 * time.Millisecond})
	// A long simulation: 10 virtual seconds takes far longer than the drain
	// deadline to simulate, so only the cooperative cancel can end it.
	var rec *httptest.ResponseRecorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec = post(s, `{"workload":"engineering","scale":0.2,"duration_ns":10000000000}`)
	}()
	waitUntil(t, "straggler to start running", func() bool { return s.running.Load() == 1 })

	if s.Shutdown() {
		t.Fatal("drain reported clean despite cancelling a straggler")
	}
	<-done
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled straggler: status %d body %s", rec.Code, rec.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("straggler error body unparseable: %s", rec.Body.String())
	}
}

// TestRequestDeadline: a request whose simulation outlives RequestTimeout is
// answered 504 with the failure manifest (TimedOut, options fingerprint, and
// the flight recorder's trailing events) — a diagnosable response, never a
// hung connection.
func TestRequestDeadline(t *testing.T) {
	s := New(Config{RequestTimeout: 50 * time.Millisecond, RecorderDepth: 32})
	defer s.Shutdown()
	// Low trigger: the run emits policy events from the start, so the flight
	// recorder has something to dump when the deadline cuts it short.
	rec := post(s, `{"workload":"engineering","scale":0.2,"duration_ns":10000000000,"trigger":16}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %s, want 504", rec.Code, rec.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body unparseable: %s", rec.Body.String())
	}
	if eb.Failure == nil || !eb.Failure.TimedOut {
		t.Fatalf("failure manifest missing or not timed out: %+v", eb.Failure)
	}
	if !strings.Contains(eb.Failure.Fingerprint, "Duration:10.000s") {
		t.Fatalf("fingerprint does not identify the run: %q", eb.Failure.Fingerprint)
	}
	if len(eb.Failure.Events) == 0 {
		t.Fatal("flight recorder dump empty: a timed-out run should carry its last events")
	}
	failureKeys(t, rec.Body.Bytes(), "engineering/migrep", true, "events", "events_dropped")
}

// failureKeys checks the failure object of an error body keeps the keys
// clients read — workload (the run's label), a 16-hex-digit id, fingerprint,
// error and timed_out, plus the listed optional keys — with the values of
// the failed run.
func failureKeys(t *testing.T, body []byte, label string, timedOut bool, optional ...string) {
	t.Helper()
	var raw struct {
		Failure map[string]any `json:"failure"`
	}
	if err := json.Unmarshal(body, &raw); err != nil || raw.Failure == nil {
		t.Fatalf("no failure object in %s", body)
	}
	f := raw.Failure
	for _, k := range append([]string{"workload", "id", "fingerprint", "error", "timed_out"}, optional...) {
		if _, ok := f[k]; !ok {
			t.Fatalf("failure body lost key %q: %v", k, f)
		}
	}
	id, _ := f["id"].(string)
	if _, err := strconv.ParseUint(id, 16, 64); err != nil || len(id) != 16 {
		t.Fatalf("failure id %q is not 16 hex digits", id)
	}
	if f["workload"] != label || f["timed_out"] != timedOut {
		t.Fatalf("failure body = workload %v timed_out %v; want %s, %v",
			f["workload"], f["timed_out"], label, timedOut)
	}
}

// TestChaosPaths: deterministic fault injection rides along a request (same
// seed, same faults, same bytes), and a run that dies outright still answers
// with a structured 500 carrying the failure manifest.
func TestChaosPaths(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	chaos := `{"workload":"engineering","scale":0.05,"duration_ns":5000000,` +
		`"faults":{"drain_node":1,"drain_at":1000000,"drop_batch":0.5,"defer_failed_ops":true}}`
	want := directRun(t, chaos)
	rec := post(s, chaos)
	if rec.Code != http.StatusOK {
		t.Fatalf("chaos request: status %d body %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("chaos run not deterministic across server and CLI:\n%s\nwant:\n%s", rec.Body.String(), want)
	}

	s.harness.PreRun = func(string, core.Options) { panic("injected chaos") }
	rec = post(s, `{"workload":"engineering","scale":0.05,"duration_ns":5000000,"seed":3}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("500 body unparseable: %s", rec.Body.String())
	}
	if eb.Failure == nil || !strings.Contains(eb.Failure.Error, "injected chaos") {
		t.Fatalf("failure manifest = %+v", eb.Failure)
	}
	failureKeys(t, rec.Body.Bytes(), "engineering/migrep", false)
	// Failures are never cached: the same request succeeds once the panic
	// hook is gone.
	s.harness.PreRun = nil
	if rec := post(s, `{"workload":"engineering","scale":0.05,"duration_ns":5000000,"seed":3}`); rec.Code != http.StatusOK {
		t.Fatalf("failure was cached: status %d body %s", rec.Code, rec.Body.String())
	}
}

// TestStreamRun: a streamed request answers NDJSON — obs events as they
// happen, then one final result line — and a streamed failure ends with an
// error line, never a silent hangup.
func TestStreamRun(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	// Low trigger so the tiny run actually emits policy events to stream.
	rec := post(s, `{"workload":"engineering","scale":0.05,"duration_ns":5000000,"trigger":16,"stream":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want events plus a result", len(lines))
	}
	for i, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("stream line %d is not JSON: %q", i, l)
		}
	}
	var final struct {
		Result map[string]any `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil || final.Result == nil {
		t.Fatalf("final stream line is not a result: %q", lines[len(lines)-1])
	}
	if final.Result["workload"] != "engineering" {
		t.Fatalf("streamed result = %v", final.Result)
	}

	s.harness.PreRun = func(string, core.Options) { panic("stream chaos") }
	rec = post(s, `{"workload":"engineering","scale":0.05,"duration_ns":5000000,"seed":5,"stream":true}`)
	lines = strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	var eb errorBody
	if err := json.Unmarshal([]byte(last), &eb); err != nil || !strings.Contains(eb.Error, "stream chaos") {
		t.Fatalf("streamed failure's final line = %q", last)
	}
}

// TestHealthz: the gauges reflect reality and the endpoint always answers.
func TestHealthz(t *testing.T) {
	s := New(Config{Workers: 3, QueueDepth: 5})
	defer s.Shutdown()
	if rec := post(s, smallBody); rec.Code != http.StatusOK {
		t.Fatalf("warmup: %d", rec.Code)
	}
	rec := get(s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var h health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.State != "accepting" || h.Capacity != 8 || h.Workers != 3 || h.Served != 1 {
		t.Fatalf("healthz = %+v", h)
	}
	if rec := get(s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz while accepting: %d", rec.Code)
	}
	if rec := post(s, `{"workload":"wat"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad request: %d", rec.Code)
	}
	s.Shutdown()
	if rec := post(s, smallBody); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request after drain: %d", rec.Code)
	}
	if rec := get(s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", rec.Code)
	}
	rec = get(s, "/healthz")
	h = health{}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.State != "draining" {
		t.Fatalf("healthz after drain = %+v (err %v)", h, err)
	}
	// Only /run's answers count: the readyz 503 is a probe, not an error.
	want := map[string]uint64{"400": 1, "429": 0, "500": 0, "503": 1, "504": 0}
	if fmt.Sprint(h.Errors) != fmt.Sprint(want) {
		t.Fatalf("healthz errors = %v, want %v", h.Errors, want)
	}
}

// TestLogLineCacheOutcome: each served request logs one line naming its
// normalized key and its cache outcome.
func TestLogLineCacheOutcome(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := New(Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if strings.HasPrefix(format, "serve ") {
			lines = append(lines, fmt.Sprintf(format, args...))
		}
	}})
	defer s.Shutdown()
	for i := 0; i < 2; i++ {
		if rec := post(s, smallBody); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("log lines %q, want one per request", lines)
	}
	const key = `key="engineering|migrep|ccnuma|fc|0.05|42|5000000|0|000000"`
	for i, want := range []string{"cache=miss", "cache=hit"} {
		if !strings.HasPrefix(lines[i], "serve engineering/migrep "+key+" "+want+" wall=") {
			t.Errorf("line %d = %q, want %s %s", i, lines[i], key, want)
		}
	}
}

// TestCacheLRU exercises the bounded cache directly: eviction order, the
// single-flight path, and a follower abandoning its wait on its own deadline.
func TestCacheLRU(t *testing.T) {
	c := newCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b, the LRU
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if st := c.stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Single-flight: a slow owner, one patient follower, one impatient one.
	gate := make(chan struct{})
	var fills atomic.Int64
	fill := func() ([]byte, error) {
		fills.Add(1)
		<-gate
		return []byte("X"), nil
	}
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		if b, out, err := c.do(context.Background(), "x", fill); err != nil || string(b) != "X" || out != outcomeMiss {
			t.Errorf("owner: %s %s %v", b, out, err)
		}
	}()
	waitUntil(t, "owner to start filling", func() bool { return fills.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.do(ctx, "x", fill); err != context.Canceled {
		t.Fatalf("impatient follower: err %v, want its own cancellation", err)
	}
	followerDone := make(chan struct{})
	fctx, following := followingCtx()
	go func() {
		defer close(followerDone)
		if b, out, err := c.do(fctx, "x", fill); err != nil || string(b) != "X" || out != outcomeFollow {
			t.Errorf("follower: %s %s %v", b, out, err)
		}
	}()
	<-following
	close(gate)
	<-ownerDone
	<-followerDone
	if fills.Load() != 1 {
		t.Fatalf("fills = %d, want 1 (single-flight)", fills.Load())
	}
	if b, out, err := c.do(context.Background(), "x", fill); err != nil || string(b) != "X" || out != outcomeHit {
		t.Fatalf("warm key: %s %s %v, want a hit", b, out, err)
	}

	// A failed fill is not cached and unblocks followers into a retry.
	boom := func() ([]byte, error) { return nil, fmt.Errorf("boom") }
	if _, _, err := c.do(context.Background(), "y", boom); err == nil {
		t.Fatal("failed fill reported success")
	}
	if b, out, err := c.do(context.Background(), "y", func() ([]byte, error) { return []byte("Y"), nil }); err != nil || string(b) != "Y" || out != outcomeMiss {
		t.Fatalf("post-failure fill: %s %s %v", b, out, err)
	}
}

// followingCtx returns a context that closes following the first time its
// Done is asked for, which cache.do does only when it starts waiting as a
// follower.
func followingCtx() (context.Context, <-chan struct{}) {
	c := &signalCtx{Context: context.Background(), following: make(chan struct{})}
	return c, c.following
}

type signalCtx struct {
	context.Context
	once      sync.Once
	following chan struct{}
}

func (c *signalCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.following) })
	return c.Context.Done()
}

// TestCachePanickingFill: a fill that panics releases its flight. The owner
// and a waiting follower both get an error promptly (the handler maps it to
// 500) instead of the follower waiting out its deadline, nothing is cached,
// and the next request for the key runs the fill again.
func TestCachePanickingFill(t *testing.T) {
	c := newCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), "p", func() ([]byte, error) {
			close(started)
			<-gate
			panic("fill chaos")
		})
		ownerErr <- err
	}()
	<-started

	fctx, following := followingCtx()
	followerErr := make(chan error, 1)
	go func() {
		_, out, err := c.do(fctx, "p", func() ([]byte, error) {
			t.Error("the follower ran a fill of its own")
			return nil, nil
		})
		if out != outcomeFollow {
			t.Errorf("follower outcome %q, want %q", out, outcomeFollow)
		}
		followerErr <- err
	}()
	<-following
	close(gate)

	var panicErr error
	for who, ch := range map[string]chan error{"owner": ownerErr, "follower": followerErr} {
		select {
		case panicErr = <-ch:
			if panicErr == nil || !strings.Contains(panicErr.Error(), "fill chaos") {
				t.Fatalf("%s: err %v, want the fill's panic", who, panicErr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still waiting on a panicked fill", who)
		}
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("a panicked fill was cached: %+v", st)
	}
	b, out, err := c.do(context.Background(), "p", func() ([]byte, error) { return []byte("P"), nil })
	if err != nil || string(b) != "P" || out != outcomeMiss {
		t.Fatalf("next request after the panic: %s %s %v, want a fresh fill", b, out, err)
	}
	s := New(Config{})
	defer s.Shutdown()
	rec := httptest.NewRecorder()
	s.writeRunError(rec, httptest.NewRequest(http.MethodPost, "/run", nil), panicErr, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("a panicked fill answers %d, want 500", rec.Code)
	}
}

// hitAllocCeiling bounds the allocations of one warmed cache hit through the
// handler, request and recorder included: about 1.5x the 37 measured once
// hits stopped building the simulation (348 while every hit ran Build).
const hitAllocCeiling = 56

// TestCacheHitAllocs: a hit decodes, normalizes and looks its key up, and
// with logging off it pays nothing for the log line. A change that puts
// Build or a fingerprint back on the hit path fails here.
func TestCacheHitAllocs(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	h := s.Handler()
	if rec := post(s, smallBody); rec.Code != http.StatusOK {
		t.Fatalf("warmup: status %d", rec.Code)
	}
	var code int
	allocs := testing.AllocsPerRun(100, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(smallBody)))
		code = rec.Code
	})
	if code != http.StatusOK {
		t.Fatalf("hit: status %d", code)
	}
	if st := s.cache.stats(); st.Misses != 1 {
		t.Fatalf("cache stats %+v, want the warmup's one miss", st)
	}
	if allocs > hitAllocCeiling {
		t.Fatalf("a cache hit makes %.0f allocations, ceiling %d", allocs, hitAllocCeiling)
	}
	t.Logf("a cache hit makes %.0f allocations", allocs)
}

// TestRequestKey: normalization merges spellings of one run and clears the
// knobs static policies ignore; the key splits every field that reaches the
// options, and requests with equal keys build equal options.
func TestRequestKey(t *testing.T) {
	parse := func(body string) Request {
		t.Helper()
		var r Request
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	key := func(body string) string {
		t.Helper()
		r := parse(body)
		if err := r.normalize(); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return r.key()
	}
	same := [][]string{
		{`{"workload":"engineering"}`,
			`{"workload":"engineering","policy":"migrep","config":"ccnuma","metric":"fc","scale":1,"seed":42}`,
			`{"workload":"engineering","stream":true}`},
		{`{"workload":"database","policy":"rr","scale":0.03}`,
			`{"workload":"database","policy":"rr","scale":0.03,"trigger":9,"adaptive":true,"reclaim":true,"mig_wshared":true,"no_remap":true}`},
		{`{"workload":"database","policy":"ft","config":"ccnow"}`,
			`{"workload":"database","policy":"ft","config":"ccnow","trigger":200,"no_remap":true}`},
	}
	for _, group := range same {
		want := key(group[0])
		job0, err := parse(group[0]).Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range group[1:] {
			if got := key(body); got != want {
				t.Errorf("%s: key %q, want %q as for %s", body, got, want, group[0])
			}
			job, err := parse(body).Build()
			if err != nil {
				t.Fatal(err)
			}
			if job.Opt.Fingerprint() != job0.Opt.Fingerprint() {
				t.Errorf("%s: equal keys, different options", body)
			}
		}
	}

	distinct := []string{
		`{"workload":"engineering"}`,
		`{"workload":"engr"}`,
		`{"workload":"raytrace"}`,
		`{"workload":"engineering","policy":"migr"}`,
		`{"workload":"engineering","policy":"repl"}`,
		`{"workload":"engineering","policy":"rr"}`,
		`{"workload":"engineering","policy":"ft"}`,
		`{"workload":"engineering","config":"ccnow"}`,
		`{"workload":"engineering","config":"zeronet"}`,
		`{"workload":"engineering","metric":"sc"}`,
		`{"workload":"engineering","metric":"ft"}`,
		`{"workload":"engineering","metric":"st"}`,
		`{"workload":"engineering","scale":0.5}`,
		`{"workload":"engineering","seed":0}`,
		`{"workload":"engineering","seed":18446744073709551615}`,
		`{"workload":"engineering","duration_ns":5000000}`,
		`{"workload":"engineering","duration_ns":-1}`,
		`{"workload":"engineering","trigger":16}`,
		`{"workload":"engineering","track_tlb":true}`,
		`{"workload":"engineering","dir_copy":true}`,
		`{"workload":"engineering","adaptive":true}`,
		`{"workload":"engineering","reclaim":true}`,
		`{"workload":"engineering","mig_wshared":true}`,
		`{"workload":"engineering","no_remap":true}`,
		`{"workload":"engineering","faults":{}}`,
		`{"workload":"engineering","faults":{"seed":1}}`,
		`{"workload":"engineering","faults":{"drain_node":1,"drain_at":1000}}`,
		`{"workload":"engineering","faults":{"drain_node":2,"drain_at":1000}}`,
		`{"workload":"engineering","faults":{"drop_batch":0.5}}`,
		`{"workload":"engineering","faults":{"delay_batch":0.5}}`,
		`{"workload":"engineering","faults":{"delay_batch":0.5,"delay_by":7}}`,
		`{"workload":"engineering","faults":{"alloc_fail":0.1}}`,
		`{"workload":"engineering","faults":{"alloc_fail":0.1,"alloc_fail_from":5}}`,
		`{"workload":"engineering","faults":{"alloc_fail":0.1,"alloc_fail_until":5}}`,
		`{"workload":"engineering","faults":{"slow_node":1,"slow_factor":2}}`,
		`{"workload":"engineering","faults":{"slow_node":1,"slow_factor":2.5}}`,
		`{"workload":"engineering","faults":{"defer_failed_ops":true}}`,
		`{"workload":"engineering","faults":{"overhead_budget":0.2}}`,
	}
	seen := map[string]string{}
	for _, body := range distinct {
		k := key(body)
		if prev, ok := seen[k]; ok {
			t.Errorf("%s and %s share key %q", prev, body, k)
		}
		seen[k] = body
	}

	// normalize works on its own copy of the pointed-to seed and faults.
	r := parse(`{"workload":"engineering","seed":7,"faults":{"drop_batch":0.5}}`)
	seed, faults := *r.Seed, *r.Faults
	r2 := r
	if err := r2.normalize(); err != nil {
		t.Fatal(err)
	}
	if *r.Seed != seed || *r.Faults != faults {
		t.Fatal("normalize wrote through the request's pointers")
	}

	// A field added to Request or fault.Config must be normalized and
	// rendered by key before these counts are raised.
	if n := reflect.TypeOf(Request{}).NumField(); n != 16 {
		t.Errorf("Request has %d fields; render the new one in Request.key", n)
	}
	if n := reflect.TypeOf(fault.Config{}).NumField(); n != 13 {
		t.Errorf("fault.Config has %d fields; render the new one in Request.key", n)
	}
}
