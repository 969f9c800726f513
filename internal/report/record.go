package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// Record states: how an attempt ended, or that the call was answered from
// the memo without simulating.
const (
	StateDone    = "done"
	StateFailed  = "failed"
	StateTimeout = "timeout"
	StateMemoHit = "memo-hit"
)

// Record is the harness's one account of a simulation attempt or of a call
// answered from the memo. Every output about runs derives from records:
// cmd/experiments -metrics writes them as JSONL, the -keep-going manifest
// and numasimd's error body are a failed run's last record, each -progress
// (Logf) line renders one, and WriteSpans draws the wall-clock timeline from
// them. Wall-clock data lives only in the wall_* fields; everything else is
// a function of the run's options.
type Record struct {
	// ID is the run's memo-key hash ("%016x" of FNV-1a over
	// workload|fingerprint), the same string in every output.
	ID       string `json:"id"`
	Workload string `json:"workload"`
	State    string `json:"state"`
	// Attempts numbers the attempt (1-based), so a failed run's last record
	// counts every attempt it made; 0 for a memo hit.
	Attempts int `json:"attempts"`
	// Policy and the simulated counts describe the result the attempt (or
	// the memo) answered with; zero for a failed attempt.
	Policy     string   `json:"policy,omitempty"`
	Elapsed    sim.Time `json:"elapsed_ns"`
	NonIdle    sim.Time `json:"nonidle_ns"`
	Steps      uint64   `json:"steps"`
	Dispatched uint64   `json:"dispatched"`
	// Fingerprint is the full core.Options fingerprint of a failed attempt:
	// enough to rebuild and replay it.
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
	TimedOut    bool   `json:"timed_out"`
	// Events is the failure flight recorder's dump: the last
	// Harness.RecorderDepth typed events before the failure, oldest first.
	// EventsDropped counts the events that fell off the ring before it.
	Events        []obs.Event `json:"events,omitempty"`
	EventsDropped uint64      `json:"events_dropped,omitempty"`
	// WallWait is the wait before the attempt (queueing before the first,
	// retry backoff before a later one); WallStart and WallEnd bound the
	// attempt, or a memo hit's call. All three are wall time since
	// NewHarness.
	WallWait  time.Duration `json:"wall_wait_ns"`
	WallStart time.Duration `json:"wall_start_ns"`
	WallEnd   time.Duration `json:"wall_end_ns"`
}

// measure copies the result's policy and simulated counts into the record.
func (r *Record) measure(res *core.Result) {
	r.Policy = res.Policy
	r.Elapsed = res.Elapsed
	r.NonIdle = res.Agg.NonIdle()
	r.Steps = res.Steps
	r.Dispatched = res.Events
}

// String renders the record as one progress line.
func (r Record) String() string {
	s := fmt.Sprintf("%-8s %s id=%s", r.State, r.Workload, r.ID)
	switch r.State {
	case StateMemoHit:
		return s
	case StateDone:
		s += fmt.Sprintf(" attempt=%d policy=%s simulated=%v", r.Attempts, r.Policy, r.Elapsed)
	default:
		s += fmt.Sprintf(" attempt=%d err=%s", r.Attempts, r.Error)
	}
	return s + fmt.Sprintf(" wall=%v", (r.WallEnd-r.WallStart).Round(time.Millisecond))
}

// FailedRuns returns the last record of each run that failed all its
// attempts: a failed or timed-out record that no next attempt of the same
// run follows. recs must hold each run's records in time order, as Records
// returns them.
func FailedRuns(recs []Record) []Record {
	var out []Record
	for i, r := range recs {
		if r.State != StateFailed && r.State != StateTimeout {
			continue
		}
		retried := false
		for _, n := range recs[i+1:] {
			if n.ID == r.ID && n.State != StateMemoHit {
				retried = n.Attempts == r.Attempts+1
				break
			}
		}
		if !retried {
			out = append(out, r)
		}
	}
	return out
}

// span is one slice of the wall-clock timeline.
type span struct {
	rec        *Record
	state      string
	lane       int
	start, end time.Duration
}

// memoLane is the thread memo-hit slices render on.
const memoLane = 1 << 16

// spans cuts records into timeline slices: an attempt becomes its wait
// ("queued" before the first attempt, "retry" before a later one) and its
// run ("running" when it succeeded, else its failed or timeout state); a
// memo hit is one "memo-hit" slice on the memo lane. Attempts are assigned
// lanes by greedy interval partitioning: in order of their wait's start,
// each takes the lowest lane free by then, so overlapping attempts render
// side by side on as few lanes as any assignment needs.
func spans(recs []Record) []span {
	order := make([]*Record, len(recs))
	for i := range recs {
		order[i] = &recs[i]
	}
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].WallStart-order[i].WallWait < order[j].WallStart-order[j].WallWait
	})
	var laneEnd []time.Duration
	var out []span
	for _, r := range order {
		if r.State == StateMemoHit {
			out = append(out, span{r, StateMemoHit, memoLane, r.WallStart, r.WallEnd})
			continue
		}
		from := r.WallStart - r.WallWait
		lane := 0
		for lane < len(laneEnd) && laneEnd[lane] > from {
			lane++
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = r.WallEnd
		wait, run := "queued", r.State
		if r.Attempts > 1 {
			wait = "retry"
		}
		if run == StateDone {
			run = "running"
		}
		out = append(out, span{r, wait, lane, from, r.WallStart}, span{r, run, lane, r.WallStart, r.WallEnd})
	}
	return out
}

// WriteSpans draws records as Chrome trace-event JSON on the wall-clock
// timebase: one "harness" process, one thread per lane plus a "memo" thread,
// one complete event ("ph":"X") per slice carrying the record's id, state
// and attempt. Loadable by Perfetto — the same wire format as the
// simulation traces. The timeline measures the host (scheduling, wall
// durations, retry timing), so unlike every simulated artifact it differs
// from run to run.
func WriteSpans(w io.Writer, recs []Record) error {
	slices := spans(recs)
	cw := obs.NewChromeWriter(w)
	cw.ProcessName(0, "harness")
	lanes, memo := 0, false
	for _, s := range slices {
		if s.lane == memoLane {
			memo = true
		} else if s.lane >= lanes {
			lanes = s.lane + 1
		}
	}
	for l := 0; l < lanes; l++ {
		cw.ThreadName(0, l, fmt.Sprintf("lane%d", l))
	}
	if memo {
		cw.ThreadName(0, memoLane, "memo")
	}
	for _, s := range slices {
		cw.Record(`{"name":%q,"ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"id":%q,"state":%q,"attempt":%d}}`,
			s.rec.Workload+" "+s.state, obs.ChromeTS(s.start.Nanoseconds()),
			obs.ChromeTS((s.end - s.start).Nanoseconds()), s.lane, s.rec.ID, s.state, s.rec.Attempts)
	}
	return cw.Close()
}
