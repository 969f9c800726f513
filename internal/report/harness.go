// Package report regenerates every table and figure of the paper's
// evaluation: each experiment runs the needed simulations (full-system or
// trace-driven), renders the same rows or series the paper reports, and
// places the paper's published numbers alongside the measured ones. The
// reproduction target is shape — who wins, by roughly what factor, where
// crossovers fall — not absolute values (see DESIGN.md).
package report

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/obs"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/topology"
	"ccnuma/internal/trace"
	"ccnuma/internal/workload"
)

// Harness runs and memoizes simulations shared by several experiments
// (e.g. one FT run per workload provides Figure 3's baseline, Table 3's
// characterisation, and the Section-8 trace). Run and Trace are
// goroutine-safe: concurrent calls for the same key share one simulation
// (singleflight) instead of racing or duplicating it.
type Harness struct {
	// Scale is the workload scale factor (1.0 = default experiments; tests
	// use smaller).
	Scale float64
	// Seed makes the whole suite reproducible.
	Seed uint64
	// Workers bounds how many simulations the sweep helpers (runner.go) run
	// concurrently; 0 or 1 runs every sweep serially in its loop order.
	Workers int
	// Logf, when set, receives progress lines: each simulation's start and
	// finish (with wall-clock timing) and each memo hit. Called from worker
	// goroutines; the sink must be safe for concurrent use (fmt.Fprintf to
	// one *os.File is).
	Logf func(format string, args ...any)
	// Retries is how many times a failed simulation (panic, error, or
	// timeout) is re-attempted before it counts as failed.
	Retries int
	// RetryBackoff is the wall-clock pause before the first retry, doubling
	// per attempt (default 100 ms).
	RetryBackoff time.Duration
	// RunTimeout, when positive, bounds each attempt's wall-clock time; a
	// run that exceeds it fails with a context.DeadlineExceeded error. The
	// deadline propagates into the engine's run loop (cooperative
	// cancellation polled every ~1k dispatched events), so a timed-out
	// simulation actually stops within microseconds instead of being
	// abandoned to burn CPU to its virtual deadline.
	RunTimeout time.Duration
	// KeepGoing turns a run's final failure into a placeholder Result
	// (Failed=true) plus a RunFailure record instead of a panic, so the rest
	// of a grid still completes. Off, the first failure panics with the
	// run's options fingerprint.
	KeepGoing bool
	// CollectSpans records the wall-clock span timeline (spans.go):
	// queued/running/retry/memo-hit/failure intervals per run, exported as
	// Chrome trace JSON by cmd/experiments -spans.
	CollectSpans bool
	// RecorderDepth, when positive, arms a failure flight recorder per
	// attempt: a bounded ring over the run's last RecorderDepth typed obs
	// events, dumped into the RunFailure manifest when the run fails — a
	// postmortem without re-running under full -events collection.
	RecorderDepth int
	// PreRun, when set, is called before each simulation attempt, inside the
	// recovery scope (test hook: failure injection and attempt counting).
	PreRun func(wl string, opt core.Options)

	mu        sync.Mutex
	runs      map[string]*runEntry
	traces    map[string]*trace.Trace
	metrics   []RunMetric
	failures  []RunFailure
	spanEpoch time.Time
	spans     []Span
	slots     []bool

	executed atomic.Uint64 // simulations actually run
	memoHits atomic.Uint64 // calls served by the memo (or a shared in-flight run)
}

// runEntry is a memo slot: the first caller owns the simulation, later
// callers block on done and read res.
type runEntry struct {
	done chan struct{}
	res  *core.Result
}

// NewHarness builds a harness at the given scale.
func NewHarness(scale float64, seed uint64) *Harness {
	if scale <= 0 {
		scale = 1.0
	}
	return &Harness{
		Scale:  scale,
		Seed:   seed,
		runs:   map[string]*runEntry{},
		traces: map[string]*trace.Trace{},
	}
}

// Counters reports how many simulations actually executed and how many
// Run/Trace calls were answered from the memo cache instead.
func (h *Harness) Counters() (executed, memoHits uint64) {
	return h.executed.Load(), h.memoHits.Load()
}

// RunMetric summarises one executed simulation for the harness's per-run
// metrics dump.
type RunMetric struct {
	// ID is the FNV-1a hash of the memo key, matching the id in Logf lines.
	ID       uint64        `json:"id"`
	Workload string        `json:"workload"`
	Policy   string        `json:"policy"`
	Elapsed  sim.Time      `json:"elapsed_ns"`
	NonIdle  sim.Time      `json:"nonidle_ns"`
	Steps    uint64        `json:"steps"`
	Events   uint64        `json:"events"`
	Wall     time.Duration `json:"wall_ns"`
}

// Metrics returns one RunMetric per executed simulation, sorted by workload
// then key hash — a deterministic order regardless of worker interleaving.
func (h *Harness) Metrics() []RunMetric {
	h.mu.Lock()
	out := make([]RunMetric, len(h.metrics))
	copy(out, h.metrics)
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RunFailure records one simulation that failed all its attempts. The
// harness's failure manifest (cmd/experiments -keep-going) serialises these.
type RunFailure struct {
	Workload string `json:"workload"`
	// ID is the run's memo-key hash, matching Logf lines ("%016x").
	ID string `json:"id"`
	// Fingerprint is the full core.Options fingerprint of the failing run —
	// enough to rebuild and replay it.
	Fingerprint string `json:"fingerprint"`
	Error       string `json:"error"`
	Attempts    int    `json:"attempts"`
	TimedOut    bool   `json:"timed_out"`
	// Events is the failure flight recorder's dump: the last RecorderDepth
	// typed events before the failure, oldest first. Empty unless
	// Harness.RecorderDepth was set.
	Events []obs.Event `json:"events,omitempty"`
	// EventsDropped is the dump's truncation marker: how many events fell
	// off the bounded ring before it (0 = Events is the complete history).
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

// Failures returns the runs that failed all attempts, sorted by workload
// then id (deterministic regardless of worker interleaving).
func (h *Harness) Failures() []RunFailure {
	h.mu.Lock()
	out := make([]RunFailure, len(h.failures))
	copy(out, h.failures)
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (h *Harness) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// keyID hashes a memo key to the short id used in logs and metrics.
func keyID(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key))
	return f.Sum64()
}

// Spec returns the (fresh) workload spec. Specs hold generator state, so a
// new one is built per run.
func (h *Harness) spec(name string) *workload.Spec {
	build, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return build(h.Scale, h.Seed)
}

// RunKey identifies a memoized run. It is derived from the full
// core.Options fingerprint: a hand-rolled field list here once omitted
// Params.Sharing/Write/Migrate/ResetInterval, silently returning the wrong
// cached Result for runs differing only in those thresholds.
func runKey(wl string, opt core.Options) string {
	return wl + "|" + opt.Fingerprint()
}

// Run executes (or returns the memoized) full-system simulation. It is
// goroutine-safe: the first caller for a key runs the simulation, any
// concurrent caller with the same key blocks until that single run
// finishes and shares its Result.
func (h *Harness) Run(wl string, opt core.Options) *core.Result {
	return h.RunContext(context.Background(), wl, opt)
}

// RunContext is Run under a caller-supplied context: cancellation or a
// deadline propagates into the simulation's engine loop, so an abandoned
// query stops simulating instead of running to its virtual deadline. A
// cancelled owner still releases memo waiters (with the failure placeholder
// under KeepGoing); the failed key is evicted, so a later caller re-runs it.
func (h *Harness) RunContext(ctx context.Context, wl string, opt core.Options) *core.Result {
	opt.Seed = h.Seed
	key := runKey(wl, opt)

	id := fmt.Sprintf("%016x", keyID(key))
	var enter time.Duration
	if h.CollectSpans {
		enter = h.sinceStart()
	}

	h.mu.Lock()
	if e, ok := h.runs[key]; ok {
		h.mu.Unlock()
		<-e.done
		h.memoHits.Add(1)
		h.logf("memo  %s id=%016x", wl, keyID(key))
		if h.CollectSpans {
			h.addSpan(Span{Workload: wl, ID: id, State: SpanMemoHit, Slot: -1,
				Start: enter, End: h.sinceStart()})
		}
		return e.res
	}
	e := &runEntry{done: make(chan struct{})}
	h.runs[key] = e
	h.mu.Unlock()

	// Release waiters even if this goroutine panics below (the process is
	// going down, but blocked goroutines should not obscure the original
	// panic).
	defer close(e.done)
	h.executed.Add(1)
	h.logf("start %s id=%016x", wl, keyID(key))
	slot := -1
	if h.CollectSpans {
		slot = h.acquireSlot()
		defer h.releaseSlot(slot)
		h.addSpan(Span{Workload: wl, ID: id, State: SpanQueued, Slot: slot,
			Start: enter, End: h.sinceStart()})
	}
	t0 := time.Now()
	res, fail, err := h.attempt(ctx, wl, id, slot,
		func() *workload.Spec { return h.spec(wl) }, opt)
	if err != nil {
		h.mu.Lock()
		// Evict the memo slot: the placeholder below answers callers already
		// blocked on this entry, but a later call for the same key must get a
		// fresh simulation, not a cached Failed result. (Leaving the entry in
		// place once poisoned the memo — every -keep-going re-query of a run
		// that had failed transiently returned the placeholder forever.)
		delete(h.runs, key)
		h.failures = append(h.failures, *fail)
		h.mu.Unlock()
		if !h.KeepGoing {
			panic(fmt.Sprintf("report: run %s id=%s failed after %d attempt(s): %v (options: %s)",
				wl, id, fail.Attempts, err, fail.Fingerprint))
		}
		res = &core.Result{Workload: wl, Policy: "failed", Failed: true}
		e.res = res
		return res
	}
	wall := time.Since(t0)
	h.logf("done  %s id=%016x policy=%s simulated=%v wall=%v",
		wl, keyID(key), res.Policy, res.Elapsed, wall.Round(time.Millisecond))
	h.mu.Lock()
	h.metrics = append(h.metrics, RunMetric{
		ID:       keyID(key),
		Workload: res.Workload,
		Policy:   res.Policy,
		Elapsed:  res.Elapsed,
		NonIdle:  res.Agg.NonIdle(),
		Steps:    res.Steps,
		Events:   res.Events,
		Wall:     wall,
	})
	h.mu.Unlock()
	e.res = res
	return res
}

// attempt drives one run through up to 1+Retries attempts with doubling
// wall-clock backoff. When every attempt fails it returns the failure record
// built from the last one (including its flight recorder's dump). id and
// slot label the spans. A cancelled caller context short-circuits the retry
// chain: retrying work nobody is waiting for would only burn CPU.
func (h *Harness) attempt(ctx context.Context, wl, id string, slot int, build func() *workload.Spec, opt core.Options) (*core.Result, *RunFailure, error) {
	backoff := h.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for attempts := 1; ; attempts++ {
		var a0 time.Duration
		if h.CollectSpans {
			a0 = h.sinceStart()
		}
		res, rec, timedOut, err := h.runOnce(ctx, wl, build, opt)
		if h.CollectSpans {
			state := SpanRunning
			switch {
			case timedOut:
				state = SpanTimeout
			case err != nil:
				state = SpanFailed
			}
			h.addSpan(Span{Workload: wl, ID: id, State: state, Attempt: attempts,
				Slot: slot, Start: a0, End: h.sinceStart()})
		}
		if err == nil {
			return res, nil, nil
		}
		if attempts > h.Retries || ctx.Err() != nil {
			return nil, h.failure(wl, id, opt, rec, attempts, timedOut, err), err
		}
		h.logf("retry %s attempt=%d backoff=%v err=%v", wl, attempts, backoff, err)
		var r0 time.Duration
		if h.CollectSpans {
			r0 = h.sinceStart()
		}
		timer := time.NewTimer(backoff)
		// The backoff races the caller's cancellation by design; both arms
		// lead to a failure path, never into results.
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, h.failure(wl, id, opt, rec, attempts, timedOut, err), err
		}
		if h.CollectSpans {
			h.addSpan(Span{Workload: wl, ID: id, State: SpanRetry, Attempt: attempts,
				Slot: slot, Start: r0, End: h.sinceStart()})
		}
		backoff *= 2
	}
}

// failure builds the record of a run that failed all its attempts — the
// fingerprint to replay it, the attempt count, the timeout flag and the
// flight recorder's dump — and logs its fail line.
func (h *Harness) failure(wl, id string, opt core.Options, rec *obs.Recorder, attempts int, timedOut bool, err error) *RunFailure {
	h.logf("fail  %s id=%s attempts=%d err=%v", wl, id, attempts, err)
	dump, dropped := rec.Dump()
	return &RunFailure{
		Workload:      wl,
		ID:            id,
		Fingerprint:   opt.Fingerprint(),
		Error:         err.Error(),
		Attempts:      attempts,
		TimedOut:      timedOut,
		Events:        dump,
		EventsDropped: dropped,
	}
}

// runOutcome carries one attempt's result out of its goroutine.
type runOutcome struct {
	res *core.Result
	err error
}

// runOnce executes one simulation attempt in a child goroutine so a panic in
// the workload or kernel layers becomes an error on this worker instead of
// tearing the process (and every other concurrent run) down. Each attempt
// gets its own flight recorder (when RecorderDepth is set), teed with the
// caller's EventSink, so a retry's dump never mixes attempts.
//
// The attempt runs under ctx plus the harness's RunTimeout. Cancellation is
// cooperative: core.RunContext installs an engine-loop check polled every
// ~1k events, so the child goroutine is always joined here — a timed-out run
// stops simulating within microseconds instead of being abandoned to burn
// CPU (the pre-context design leaked exactly that goroutine). timedOut
// reports a deadline expiry, whether from RunTimeout or a deadline already
// on ctx.
func (h *Harness) runOnce(ctx context.Context, wl string, build func() *workload.Spec, opt core.Options) (res *core.Result, rec *obs.Recorder, timedOut bool, err error) {
	if h.RecorderDepth > 0 {
		rec = obs.NewRecorder(h.RecorderDepth)
		opt.EventSink = obs.Tee(rec.Record, opt.EventSink)
	}
	if h.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.RunTimeout)
		defer cancel()
	}
	ch := make(chan runOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- runOutcome{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		if h.PreRun != nil {
			h.PreRun(wl, opt)
		}
		r, e := core.RunContext(ctx, build(), opt)
		ch <- runOutcome{res: r, err: e}
	}()
	out := <-ch
	return out.res, rec, errors.Is(out.err, context.DeadlineExceeded), out.err
}

// Execute runs one simulation through the harness's hardening — panic
// isolation in a child goroutine, the retry chain with backoff, the
// per-attempt flight recorder, RunTimeout and ctx cancellation propagated
// into the engine loop — without touching the memo or the harness's
// accumulating state (metrics, failures, spans). A long-running server keeps
// one Harness for the life of the process, so Execute must not grow anything
// per request: the failure manifest is returned to the caller instead of
// appended, and caching is the caller's policy (internal/serve keys a
// bounded LRU on the options fingerprint).
//
// Unlike Run, opt is used verbatim: requests carry their own Seed. build is called once per attempt for a fresh spec (specs hold
// generator state).
func (h *Harness) Execute(ctx context.Context, label string, build func() *workload.Spec, opt core.Options) (*core.Result, *RunFailure, error) {
	id := fmt.Sprintf("%016x", keyID(label+"|"+opt.Fingerprint()))
	h.executed.Add(1)
	h.logf("start %s id=%s", label, id)
	t0 := time.Now()
	res, fail, err := h.attempt(ctx, label, id, -1, build, opt)
	if err != nil {
		return nil, fail, err
	}
	h.logf("done  %s id=%s policy=%s simulated=%v wall=%v",
		label, id, res.Policy, res.Elapsed, time.Since(t0).Round(time.Millisecond))
	return res, nil, nil
}

// FT runs the first-touch baseline for a workload.
func (h *Harness) FT(wl string) *core.Result {
	return h.Run(wl, core.Options{})
}

// MigRep runs the base dynamic policy for a workload.
func (h *Harness) MigRep(wl string) *core.Result {
	return h.Run(wl, core.Options{Dynamic: true})
}

// Trace returns the workload's miss trace, generated once under first-touch
// placement (the paper records traces from the unmodified system).
// Goroutine-safe: concurrent first calls share one trace-collecting run
// through Run's singleflight.
func (h *Harness) Trace(wl string) *trace.Trace {
	h.mu.Lock()
	t, ok := h.traces[wl]
	h.mu.Unlock()
	if ok {
		return t
	}
	res := h.Run(wl, core.Options{CollectTrace: true})
	h.mu.Lock()
	h.traces[wl] = res.Trace
	h.mu.Unlock()
	return res.Trace
}

// OtherTime estimates the placement-independent execution time of a
// workload (compute, L2-hit stall, TLB refills, faults — not idle) from its
// FT run; the trace simulator adds it to every policy's total, matching
// Figure 6's "all other time" component.
func (h *Harness) OtherTime(wl string) sim.Time {
	res := h.Run(wl, core.Options{CollectTrace: true})
	b := &res.Agg
	l2, _, _ := b.MemStall()
	return b.Compute[0] + b.Compute[1] + l2 + b.TLBRefill + b.FaultTime
}

// CodePages returns the workload's user-code footprint in pages.
func (h *Harness) CodePages(wl string) int {
	n := 0
	for _, r := range h.spec(wl).Regions {
		if r.Kind == workload.CodeRegion {
			n += r.N
		}
	}
	return n
}

// Nodes returns the node count a workload runs on (the database uses 4).
func (h *Harness) Nodes(wl string) int {
	if wl == "database" {
		return 4
	}
	return topology.CCNUMA().Nodes
}

// BasePolicy returns the paper's base policy parameters for a workload
// (trigger 96 for engineering, 128 otherwise; sharing = trigger/4).
func (h *Harness) BasePolicy(wl string) policy.Params {
	return policy.Base().WithTrigger(h.spec(wl).Trigger)
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(h *Harness) string
}

var registry []Experiment

func register(id, title string, run func(h *Harness) string) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments returns the registered experiments in the paper's order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

func order(id string) int {
	for i, x := range []string{"T3", "F3", "T4", "S7.1.2", "F5", "T5", "T6", "S7.2.1", "S7.2.3", "F4", "F6", "F7", "F8", "F9", "S8.4", "X1", "X2", "X3", "X4", "X5"} {
		if x == id {
			return i
		}
	}
	return 99
}

// ByID returns one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("report: unknown experiment %q", id)
}

// RunAll renders every experiment into one document.
func RunAll(h *Harness) string {
	var b strings.Builder
	for _, e := range Experiments() {
		fmt.Fprintf(&b, "## %s — %s\n\n%s\n", e.ID, e.Title, e.Run(h))
	}
	return b.String()
}

// pct formats a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x) }

// improvement returns (base-new)/base as a percentage.
func improvement(base, new sim.Time) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-new) / float64(base)
}

// row renders one fixed-width table row.
func row(b *strings.Builder, cells ...string) {
	for i, c := range cells {
		if i == 0 {
			fmt.Fprintf(b, "%-14s", c)
		} else {
			fmt.Fprintf(b, " %12s", c)
		}
	}
	b.WriteByte('\n')
}
