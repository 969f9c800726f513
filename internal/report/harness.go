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
	// Logf, when set, receives one progress line per record (Record.String):
	// each simulation's end, with its wall-clock time, and each memo hit.
	// Called from worker goroutines; the sink must be safe for concurrent use
	// (fmt.Fprintf to one *os.File is).
	Logf func(format string, args ...any)
	// RunTimeout, when positive, bounds each run's wall-clock time; a
	// run that exceeds it fails with a context.DeadlineExceeded error. The
	// deadline propagates into the engine's run loop (cooperative
	// cancellation polled every ~1k dispatched events), so a timed-out
	// simulation actually stops within microseconds instead of being
	// abandoned to burn CPU to its virtual deadline.
	RunTimeout time.Duration
	// KeepGoing turns a run's failure into a placeholder Result
	// (Failed=true) instead of a panic, so the rest of a grid still
	// completes; the failure stays in Records. Off, the first failure panics
	// with the run's options fingerprint.
	KeepGoing bool
	// RecorderDepth, when positive, arms a failure flight recorder per
	// simulation: a bounded ring over the run's last RecorderDepth typed obs
	// events, dumped into a failed run's Record — a postmortem without
	// re-running under full -events collection.
	RecorderDepth int
	// PreRun, when set, is called before each simulation, inside the
	// recovery scope (test hook: failure injection and run counting).
	PreRun func(wl string, opt core.Options)

	epoch   time.Time // the zero of every Record's wall_* fields
	mu      sync.Mutex
	runs    map[string]*runEntry
	records []Record

	executed atomic.Uint64 // simulations actually run
	memoHits atomic.Uint64 // calls served by the memo (or a shared in-flight run)
}

// runEntry is a memo slot: the first caller owns the simulation, later
// callers block on done and read res. fail is the failure's panic text,
// empty after a success; a failed run keeps its slot, so it is simulated
// once however often it is asked for.
type runEntry struct {
	done chan struct{}
	res  *core.Result
	fail string
}

// NewHarness builds a harness at the given scale.
func NewHarness(scale float64, seed uint64) *Harness {
	if scale <= 0 {
		scale = 1.0
	}
	return &Harness{
		Scale: scale,
		Seed:  seed,
		epoch: time.Now(),
		runs:  map[string]*runEntry{},
	}
}

// Counters reports how many simulations actually executed and how many
// Run/Trace calls were answered from the memo cache instead.
func (h *Harness) Counters() (executed, memoHits uint64) {
	return h.executed.Load(), h.memoHits.Load()
}

// Records returns every record of the runs made through Run, sorted by
// workload, then id, then start time: each run's simulations and memo hits
// together, in the order they happened.
func (h *Harness) Records() []Record {
	h.mu.Lock()
	out := make([]Record, len(h.records))
	copy(out, h.records)
	h.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.WallStart < b.WallStart
	})
	return out
}

// since returns the wall time since NewHarness.
func (h *Harness) since() time.Duration { return time.Since(h.epoch) }

// record hands one record to its outputs: the Logf line, and for a run
// through the memo (keep) the harness's records. Execute's records are only
// logged, so a long-lived server's harness grows nothing.
func (h *Harness) record(r Record, keep bool) {
	if h.Logf != nil {
		h.Logf("%s", r)
	}
	if keep {
		h.mu.Lock()
		h.records = append(h.records, r)
		h.mu.Unlock()
	}
}

// keyID hashes a memo key to the id every record carries ("%016x").
func keyID(key string) string {
	f := fnv.New64a()
	f.Write([]byte(key))
	return fmt.Sprintf("%016x", f.Sum64())
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
// query stops simulating instead of running to its virtual deadline. It is
// the memo around runOnce. A run is simulated once: the model is
// deterministic, so a failure would recur on a re-run, and it stays in the
// memo like a success; every later caller gets the placeholder under
// KeepGoing and the same panic otherwise. Only a failure under the owner's
// own cancelled ctx is evicted (it says nothing about the run), so a later
// caller re-runs it; waiters already blocked on it still get the
// placeholder.
func (h *Harness) RunContext(ctx context.Context, wl string, opt core.Options) *core.Result {
	opt.Seed = h.Seed
	key := runKey(wl, opt)
	id := keyID(key)
	enter := h.since()

	h.mu.Lock()
	if e, ok := h.runs[key]; ok {
		h.mu.Unlock()
		<-e.done
		h.memoHits.Add(1)
		r := Record{ID: id, Workload: wl, State: StateMemoHit, WallStart: enter, WallEnd: h.since()}
		r.measure(e.res)
		h.record(r, true)
		if e.fail != "" && !h.KeepGoing {
			panic(e.fail)
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
	res, rec, err := h.runOnce(ctx, wl, id, enter,
		func() *workload.Spec { return h.spec(wl) }, opt, true)
	if err != nil {
		e.res = &core.Result{Workload: wl, Policy: "failed", Failed: true}
		e.fail = fmt.Sprintf("report: run %s id=%s failed: %v (options: %s)",
			wl, id, err, rec.Fingerprint)
		if ctx.Err() != nil {
			h.mu.Lock()
			delete(h.runs, key)
			h.mu.Unlock()
		}
		if !h.KeepGoing {
			panic(e.fail)
		}
		return e.res
	}
	e.res = res
	return res
}

// runOutcome carries one simulation's result out of its goroutine.
type runOutcome struct {
	res *core.Result
	err error
}

// runOnce executes one simulation in a child goroutine so a panic in the
// workload or kernel layers becomes an error on this worker instead of
// tearing the process (and every other concurrent run) down. It hands the
// run's record to h.record (kept when keep is set) and returns it; waitFrom
// is when the run was asked for, the start of its wait. Each run gets its
// own flight recorder (when RecorderDepth is set), teed with the caller's
// EventSink.
//
// The simulation runs under ctx plus the harness's RunTimeout. Cancellation is
// cooperative: core.RunContext installs an engine-loop check polled every
// ~1k events, so the child goroutine is always joined here — a timed-out run
// stops simulating within microseconds instead of being abandoned to burn
// CPU (the pre-context design leaked exactly that goroutine).
func (h *Harness) runOnce(ctx context.Context, wl, id string, waitFrom time.Duration, build func() *workload.Spec, opt core.Options, keep bool) (*core.Result, Record, error) {
	h.executed.Add(1)
	var rec *obs.Recorder
	if h.RecorderDepth > 0 {
		rec = obs.NewRecorder(h.RecorderDepth)
		opt.EventSink = obs.Tee(rec.Record, opt.EventSink)
	}
	if h.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.RunTimeout)
		defer cancel()
	}
	r := Record{ID: id, Workload: wl, WallStart: h.since()}
	r.WallWait = r.WallStart - waitFrom
	ch := make(chan runOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- runOutcome{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		if h.PreRun != nil {
			h.PreRun(wl, opt)
		}
		res, err := core.RunContext(ctx, build(), opt)
		ch <- runOutcome{res: res, err: err}
	}()
	out := <-ch
	r.WallEnd = h.since()
	if out.err == nil {
		r.State = StateDone
		r.measure(out.res)
		h.record(r, keep)
		return out.res, r, nil
	}
	r.State, r.TimedOut = StateFailed, errors.Is(out.err, context.DeadlineExceeded)
	if r.TimedOut {
		r.State = StateTimeout
	}
	r.Fingerprint, r.Error = opt.Fingerprint(), out.err.Error()
	r.Events, r.EventsDropped = rec.Dump()
	h.record(r, keep)
	return nil, r, out.err
}

// Execute runs one simulation through the harness's hardening — panic
// isolation in a child goroutine, the flight recorder, RunTimeout and ctx
// cancellation propagated into the engine loop — without the memo. It
// returns the run's record instead of keeping it: a long-running server
// keeps one Harness for the life of the process, so Execute must not grow
// anything per request, and caching is the caller's policy (internal/serve
// keys a bounded LRU on the normalized request).
//
// Unlike Run, opt is used verbatim: requests carry their own Seed. build is
// called once for a fresh spec (specs hold generator state).
func (h *Harness) Execute(ctx context.Context, label string, build func() *workload.Spec, opt core.Options) (*core.Result, Record, error) {
	return h.runOnce(ctx, label, keyID(label+"|"+opt.Fingerprint()), h.since(), build, opt, false)
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
// placement (the paper records traces from the unmodified system) and
// answered through Run's memo after that.
func (h *Harness) Trace(wl string) *trace.Trace {
	return h.Run(wl, core.Options{CollectTrace: true}).Trace
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
