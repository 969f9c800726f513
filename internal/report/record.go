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

// Record states: how a simulation ended, or that the call was answered from
// the memo without simulating.
const (
	StateDone    = "done"
	StateFailed  = "failed"
	StateTimeout = "timeout"
	StateMemoHit = "memo-hit"
)

// Record is the harness's one account of a simulation or of a call answered
// from the memo. Every output about runs derives from records:
// cmd/experiments -metrics writes them as JSONL, the -keep-going manifest
// and numasimd's error body are a failed run's record, each -progress
// (Logf) line renders one, and WriteSpans draws the wall-clock timeline from
// them. Wall-clock data lives only in the wall_* fields; everything else is
// a function of the run's options.
type Record struct {
	// ID is the run's memo-key hash ("%016x" of FNV-1a over
	// workload|fingerprint), the same string in every output.
	ID       string `json:"id"`
	Workload string `json:"workload"`
	State    string `json:"state"`
	// Policy and the simulated counts describe the result the simulation (or
	// the memo) answered with; zero for a failed run.
	Policy     string   `json:"policy,omitempty"`
	Elapsed    sim.Time `json:"elapsed_ns"`
	NonIdle    sim.Time `json:"nonidle_ns"`
	Steps      uint64   `json:"steps"`
	Dispatched uint64   `json:"dispatched"`
	// Fingerprint is the full core.Options fingerprint of a failed run:
	// enough to rebuild and replay it.
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
	TimedOut    bool   `json:"timed_out"`
	// Events is the failure flight recorder's dump: the last
	// Harness.RecorderDepth typed events before the failure, oldest first.
	// EventsDropped counts the events that fell off the ring before it.
	Events        []obs.Event `json:"events,omitempty"`
	EventsDropped uint64      `json:"events_dropped,omitempty"`
	// WallWait is the wait before the simulation started; WallStart and
	// WallEnd bound the simulation, or a memo hit's call. All three are wall
	// time since NewHarness.
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
		s += fmt.Sprintf(" policy=%s simulated=%v", r.Policy, r.Elapsed)
	default:
		s += " err=" + r.Error
	}
	return s + fmt.Sprintf(" wall=%v", (r.WallEnd-r.WallStart).Round(time.Millisecond))
}

// FailedRuns returns the records of the simulations that failed or timed
// out, in recs' order.
func FailedRuns(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if r.State == StateFailed || r.State == StateTimeout {
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

// spans cuts records into timeline slices: a simulation becomes its wait
// ("queued") and its run ("running" when it succeeded, else its failed or
// timeout state); a memo hit is one "memo-hit" slice on the memo lane.
// Simulations are assigned lanes by greedy interval partitioning: in order
// of their wait's start, each takes the lowest lane free by then, so
// overlapping simulations render side by side on as few lanes as any
// assignment needs.
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
		run := r.State
		if run == StateDone {
			run = "running"
		}
		out = append(out, span{r, "queued", lane, from, r.WallStart}, span{r, run, lane, r.WallStart, r.WallEnd})
	}
	return out
}

// WriteSpans draws records as Chrome trace-event JSON on the wall-clock
// timebase: one "harness" process, one thread per lane plus a "memo" thread,
// one complete event ("ph":"X") per slice carrying the record's id and
// state. Loadable by Perfetto — the same wire format as the simulation
// traces. The timeline measures the host (scheduling, wall durations), so
// unlike every simulated artifact it differs from run to run.
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
		cw.Record(`{"name":%q,"ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"id":%q,"state":%q}}`,
			s.rec.Workload+" "+s.state, obs.ChromeTS(s.start.Nanoseconds()),
			obs.ChromeTS((s.end - s.start).Nanoseconds()), s.lane, s.rec.ID, s.state)
	}
	return cw.Close()
}
