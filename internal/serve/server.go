package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccnuma/internal/obs"
	"ccnuma/internal/report"
)

// Config sets the server's capacity and robustness knobs. The zero value is
// usable: New fills in the defaults below.
type Config struct {
	// Workers is how many simulations run concurrently (default 2). Beyond
	// it, admitted requests queue.
	Workers int
	// QueueDepth is how many admitted requests may wait for a run slot
	// (default 8). Beyond Workers+QueueDepth the server sheds load with 429.
	QueueDepth int
	// CacheEntries bounds the rendered-result LRU (default 64; 0 after New
	// explicitly via -1 disables caching).
	CacheEntries int
	// RequestTimeout bounds each request's wall-clock time, queue wait
	// included (default 60s). The deadline propagates into the engine loop.
	RequestTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight runs (default 30s);
	// past it, stragglers are cancelled cooperatively and still joined.
	DrainTimeout time.Duration
	// Retries and RecorderDepth configure the underlying report.Harness: how
	// many times a failed run is re-attempted, and how many trailing obs
	// events the failure flight recorder keeps for the failure body
	// (defaults 0 and 64).
	Retries       int
	RecorderDepth int
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// Logf, when set, receives one line per lifecycle transition and one per
	// run attempt (the harness logs each attempt's record through it). Must
	// be safe for concurrent use.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RecorderDepth == 0 {
		c.RecorderDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server is the simulation service: one long-lived report.Harness behind
// bounded admission, a content-addressed result cache, and a drainable
// lifecycle. Create with New, mount Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	harness *report.Harness
	cache   *cache

	// queueSlots bounds total admitted requests (Workers+QueueDepth);
	// runSlots bounds concurrently simulating ones (Workers). Both are
	// semaphores: send acquires, receive releases.
	queueSlots chan struct{}
	runSlots   chan struct{}

	// admitMu orders admission against the drain flip: handlers take the
	// read side around the draining check and inflight.Add, Shutdown takes
	// the write side to flip draining — so inflight.Add never races
	// inflight.Wait (a WaitGroup forbids Add concurrent with Wait at zero).
	admitMu  sync.RWMutex
	draining bool
	drainCh  chan struct{} // closed when the drain begins; sheds queued waiters
	inflight sync.WaitGroup

	// baseCtx is cancelled when the drain deadline expires, cutting the
	// engine loops of straggling runs cooperatively.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	admitted   atomic.Int64 // requests holding a queue slot (queued + running)
	admittedHW atomic.Int64 // high-water mark of admitted (lifecycle tests)
	running    atomic.Int64 // requests holding a run slot
	served     atomic.Uint64
	// errs counts /run's error responses, one per errorStatuses entry.
	errs [len(errorStatuses)]atomic.Uint64
}

// errorStatuses are the /run error statuses /healthz counts.
var errorStatuses = [...]int{
	http.StatusBadRequest,
	http.StatusTooManyRequests,
	http.StatusInternalServerError,
	http.StatusServiceUnavailable,
	http.StatusGatewayTimeout,
}

// New builds a server. The harness is configured once and shared by every
// request for the life of the process; per-request state stays per-request
// (Execute never grows the harness).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	h := report.NewHarness(1.0, 0)
	h.Retries = cfg.Retries
	h.RecorderDepth = cfg.RecorderDepth
	h.RunTimeout = cfg.RequestTimeout
	h.Logf = cfg.Logf
	ctx, cancel := context.WithCancel(context.Background())
	entries := cfg.CacheEntries
	if entries < 0 {
		entries = 0
	}
	return &Server{
		cfg:        cfg,
		harness:    h,
		cache:      newCache(entries),
		queueSlots: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		runSlots:   make(chan struct{}, cfg.Workers),
		drainCh:    make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the server's routes: POST /run, GET /healthz, GET /readyz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// errorBody is the JSON shape of every non-2xx response: a human-readable
// error plus, when a simulation actually failed, the run's last harness
// record (options fingerprint, attempts, flight-recorder dump) — a crash is
// a diagnosable response, not a dead connection.
type errorBody struct {
	Error   string         `json:"error"`
	Failure *report.Record `json:"failure,omitempty"`
}

// fail answers a /run request with an error and counts its status.
func (s *Server) fail(w http.ResponseWriter, status int, body errorBody) {
	if c := s.answered(status); c != nil {
		c.Add(1)
	}
	writeError(w, status, body)
}

// answered returns the counter of /run's answers with status, or nil for a
// status errorStatuses does not list.
func (s *Server) answered(status int) *atomic.Uint64 {
	for i, st := range errorStatuses {
		if st == status {
			return &s.errs[i]
		}
	}
	return nil
}

func writeError(w http.ResponseWriter, status int, body errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // nothing left to do for a gone client
}

// runError carries a simulation failure (with its last record) out of the
// cache fill so the handler can map it to a status code.
type runError struct {
	fail *report.Record
	err  error
}

func (e *runError) Error() string { return e.err.Error() }
func (e *runError) Unwrap() error { return e.err }

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errorBody{Error: "POST /run"})
		return
	}

	// Parse and validate before spending any capacity: a malformed request
	// must never occupy a queue slot.
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, errorBody{Error: "parse: " + err.Error()})
		return
	}
	if err := req.normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Streams bypass the cache, so they are the only requests built up
	// front; a cached request is built only by the fill that simulates it.
	var job *Job
	if req.Stream {
		var err error
		if job, err = req.Build(); err != nil {
			s.fail(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
	}

	// Admission stage 0: the drain gate (see admitMu). Once draining, new
	// work is refused outright.
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		s.fail(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	s.inflight.Add(1)
	s.admitMu.RUnlock()
	defer s.inflight.Done()

	// Admission stage 1: a queue slot, non-blocking. None free means the
	// server is saturated past its declared queue depth — shed immediately
	// with backpressure rather than letting goroutines pile up unboundedly.
	// Shedding is a timing decision by design: a 429 is backpressure, never
	// result bytes.
	select {
	case s.queueSlots <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, errorBody{Error: "queue full"})
		return
	}
	defer func() { <-s.queueSlots }()
	cur := s.admitted.Add(1)
	for {
		hw := s.admittedHW.Load()
		if cur <= hw || s.admittedHW.CompareAndSwap(hw, cur) {
			break
		}
	}
	defer s.admitted.Add(-1)

	// The request deadline covers queue wait and simulation alike, and the
	// drain deadline (baseCtx) cuts through it: a straggler past DrainTimeout
	// is cancelled cooperatively wherever it is.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	if job != nil {
		if err := s.acquireRun(ctx); err != nil {
			s.writeRunError(w, r, err, nil)
			return
		}
		defer s.releaseRun()
		s.streamRun(ctx, w, job)
		return
	}

	// Only the single-flight owner of a missing key builds the job and takes
	// a run slot, inside the fill: a cache hit or a follower of someone
	// else's run simulates nothing and must not wait behind, or occupy, a
	// worker.
	var t0 time.Time
	if s.cfg.Logf != nil {
		t0 = time.Now()
	}
	key := req.key()
	body, outcome, err := s.cache.do(ctx, key, func() ([]byte, error) {
		job, err := req.Build()
		if err != nil {
			return nil, err
		}
		if err := s.acquireRun(ctx); err != nil {
			return nil, err
		}
		defer s.releaseRun()
		res, fail, rerr := s.harness.Execute(ctx, job.Label, job.Spec, job.Opt)
		if rerr != nil {
			return nil, &runError{fail: &fail, err: rerr}
		}
		return ResultJSON(res)
	})
	if err != nil {
		var re *runError
		var fail *report.Record
		if errors.As(err, &re) {
			fail = re.fail
		}
		s.writeRunError(w, r, err, fail)
		return
	}
	s.served.Add(1)
	if s.cfg.Logf != nil {
		s.cfg.Logf("serve %s/%s key=%q cache=%s wall=%v", req.Workload, req.Policy, key, outcome,
			time.Since(t0).Round(time.Millisecond))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck // nothing left to do for a gone client
}

// errShed is a queued run refused by a drain before it took a run slot.
var errShed = errors.New("draining: queued request shed")

// acquireRun is admission stage 2: a run slot. Shedding prefers queued work
// over running work — a drain closes drainCh, answering every waiter here
// with errShed while the Workers already simulating finish. The arbitration
// is wall-clock by nature; every arm leads to response plumbing, never into
// result bytes. A nil return must be paired with releaseRun.
func (s *Server) acquireRun(ctx context.Context) error {
	select {
	case s.runSlots <- struct{}{}:
		s.running.Add(1)
		return nil
	case <-s.drainCh:
		return errShed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) releaseRun() {
	s.running.Add(-1)
	<-s.runSlots
}

// writeRunError maps a failed run (or a dead context) to its status: 504 for
// a deadline, 503 for a drain-induced cancel or shed, nothing at all for a
// client that hung up (there is no one left to answer), 500 for a genuine
// simulation failure — always with the failed run's record when one exists.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error, fail *report.Record) {
	switch {
	case errors.Is(err, errShed):
		s.fail(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded: " + err.Error(), Failure: fail})
	case errors.Is(err, context.Canceled):
		if r.Context().Err() != nil {
			return
		}
		s.fail(w, http.StatusServiceUnavailable, errorBody{Error: "cancelled by drain: " + err.Error(), Failure: fail})
	default:
		s.fail(w, http.StatusInternalServerError, errorBody{Error: err.Error(), Failure: fail})
	}
}

// streamRun answers one request as NDJSON: each obs event the run emits
// becomes a line as it happens, then a final {"result": ...} or
// {"error": ...} line. Streams bypass the result cache — their value is the
// live event feed, which a cache hit by definition cannot replay.
func (s *Server) streamRun(ctx context.Context, w http.ResponseWriter, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	var out writeFlusher = nopFlusher{w}
	if f, ok := w.(http.Flusher); ok {
		out = flushWriter{w, f}
	}
	sw := obs.NewStreamWriter(out)
	opt := job.Opt
	opt.EventSink = sw.Sink()
	res, fail, err := s.harness.Execute(ctx, job.Label, job.Spec, opt)
	if err != nil {
		sw.WriteValue(errorBody{Error: err.Error(), Failure: &fail})
		return
	}
	s.served.Add(1)
	sw.WriteValue(map[string]any{"result": Summary(res)})
}

type writeFlusher interface{ Write([]byte) (int, error) }

// flushWriter flushes after every line so a consumer sees events live.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

type nopFlusher struct{ w io.Writer }

func (n nopFlusher) Write(p []byte) (int, error) { return n.w.Write(p) }

// health is the /healthz body.
type health struct {
	State    string     `json:"state"` // accepting | draining
	Admitted int64      `json:"admitted"`
	Running  int64      `json:"running"`
	Queued   int64      `json:"queued"`
	Capacity int        `json:"capacity"`
	Workers  int        `json:"workers"`
	Served   uint64     `json:"served"`
	Rejected uint64     `json:"rejected"`
	Cache    cacheStats `json:"cache"`
	// Errors counts /run's error responses by status code.
	Errors map[string]uint64 `json:"errors"`
}

func (s *Server) snapshot() health {
	s.admitMu.RLock()
	state := "accepting"
	if s.draining {
		state = "draining"
	}
	s.admitMu.RUnlock()
	admitted := s.admitted.Load()
	running := s.running.Load()
	queued := admitted - running
	if queued < 0 {
		queued = 0
	}
	errs := make(map[string]uint64, len(errorStatuses))
	for i, st := range errorStatuses {
		errs[strconv.Itoa(st)] = s.errs[i].Load()
	}
	return health{
		State:    state,
		Admitted: admitted,
		Running:  running,
		Queued:   queued,
		Capacity: s.cfg.Workers + s.cfg.QueueDepth,
		Workers:  s.cfg.Workers,
		Served:   s.served.Load(),
		Rejected: s.answered(http.StatusTooManyRequests).Load(),
		Cache:    s.cache.stats(),
		Errors:   errs,
	}
}

// handleHealthz always answers 200 with the gauges — liveness plus
// introspection, not a routing signal.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot()) //nolint:errcheck
}

// handleReadyz flips to 503 the moment the drain begins or the queue fills,
// so a load balancer stops routing before requests start bouncing.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.snapshot()
	if h.State != "accepting" || h.Admitted >= int64(h.Capacity) {
		writeError(w, http.StatusServiceUnavailable, errorBody{Error: "not ready: " + h.State})
		return
	}
	fmt.Fprintln(w, "ok")
}
