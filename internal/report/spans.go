package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"ccnuma/internal/obs"
)

// The harness span timeline: when Harness.CollectSpans is set, every Run call
// leaves a wall-clock trail — queued, running (with its outcome), retry
// backoffs, and memo hits — renderable as Chrome trace-event JSON
// (cmd/experiments -spans). Spans are intentionally *not* deterministic:
// they measure the host machine (worker scheduling, wall durations, retry
// timing), which is the point. Every deterministic artifact of a run lives
// in virtual time; the span timeline is where wall time is allowed to show
// (see DESIGN.md, observability invariants).

// Span states. A run appears as one "queued" span (Run entry to first
// attempt), one span per attempt ("running" for a success, "failed" or
// "timeout" otherwise), a "retry" span per backoff pause, and a "memo-hit"
// span per call answered from the memo.
const (
	SpanQueued  = "queued"
	SpanRunning = "running"
	SpanMemoHit = "memo-hit"
	SpanRetry   = "retry"
	SpanTimeout = "timeout"
	SpanFailed  = "failed"
)

// Span is one interval of a run's lifecycle, in wall time relative to the
// harness's first observed instant.
type Span struct {
	Workload string `json:"workload"`
	// ID is the run's memo-key hash ("%016x"), matching Logf and RunFailure.
	ID    string `json:"id"`
	State string `json:"state"`
	// Attempt numbers running/retry/failed/timeout spans (1-based); 0 for
	// queued and memo-hit spans.
	Attempt int `json:"attempt,omitempty"`
	// Slot is the render lane: a worker-slot index for owned runs, -1 for
	// memo hits.
	Slot  int           `json:"slot"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// sinceStart returns the wall time since the harness's span epoch,
// establishing the epoch on first use.
func (h *Harness) sinceStart() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.spanEpoch.IsZero() {
		h.spanEpoch = wallNow()
	}
	return wallSince(h.spanEpoch)
}

func (h *Harness) addSpan(s Span) {
	h.mu.Lock()
	h.spans = append(h.spans, s)
	h.mu.Unlock()
}

// acquireSlot reserves the lowest free worker slot, so overlapping runs
// render as parallel profiler lanes.
func (h *Harness) acquireSlot() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, used := range h.slots {
		if !used {
			h.slots[i] = true
			return i
		}
	}
	h.slots = append(h.slots, true)
	return len(h.slots) - 1
}

func (h *Harness) releaseSlot(i int) {
	h.mu.Lock()
	h.slots[i] = false
	h.mu.Unlock()
}

// Spans returns the recorded timeline sorted by (start, id, state) — stable
// for rendering, though the times themselves are wall-clock and vary run to
// run.
func (h *Harness) Spans() []Span {
	h.mu.Lock()
	out := make([]Span, len(h.spans))
	copy(out, h.spans)
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].State < out[j].State
	})
	return out
}

// WriteSpans writes the harness's span timeline as Chrome trace-event JSON.
func (h *Harness) WriteSpans(w io.Writer) error {
	return WriteSpansChromeTrace(w, h.Spans())
}

// memoSlotTID is the synthetic thread the memo-hit spans render on.
const memoSlotTID = 1 << 16

// WriteSpansChromeTrace writes spans as Chrome trace-event JSON: one
// "harness" process, one thread per worker slot plus a "memo" thread, one
// complete event ("ph":"X") per span. Loadable by Perfetto — the same wire
// format as the simulation traces, but on the wall-clock timebase.
func WriteSpansChromeTrace(w io.Writer, spans []Span) error {
	slots := map[int]bool{}
	for _, s := range spans {
		slots[s.Slot] = true
	}
	slotList := make([]int, 0, len(slots))
	for s := range slots {
		slotList = append(slotList, s)
	}
	sort.Ints(slotList)

	cw := obs.NewChromeWriter(w)
	cw.ProcessName(0, "harness")
	for _, s := range slotList {
		name := fmt.Sprintf("slot%d", s)
		tid := s
		if s < 0 {
			name = "memo"
			tid = memoSlotTID
		}
		cw.ThreadName(0, tid, name)
	}
	for _, s := range spans {
		tid := s.Slot
		if tid < 0 {
			tid = memoSlotTID
		}
		args := fmt.Sprintf(`"id":%q,"state":%q`, s.ID, s.State)
		if s.Attempt > 0 {
			args += fmt.Sprintf(`,"attempt":%d`, s.Attempt)
		}
		cw.Record(`{"name":%q,"ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{%s}}`,
			s.Workload+" "+s.State, obs.ChromeTS(s.Start.Nanoseconds()),
			obs.ChromeTS((s.End - s.Start).Nanoseconds()), tid, args)
	}
	return cw.Close()
}
