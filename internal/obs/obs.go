// Package obs is the simulation's observability layer: a typed event tracer
// and a periodic time-series sampler, both zero-overhead when disabled.
//
// The tracer answers *when and why* pages move — every migration,
// replication, collapse, TLB shootdown, and Figure-1 policy decision (with
// the counter values and thresholds that drove the branch taken) becomes a
// timestamped event, exportable as JSONL or as Chrome trace-event JSON that
// Perfetto loads directly. The sampler answers *how the machine trends* —
// per-CPU busy/idle/pager deltas, per-node frame occupancy and replica
// counts, and directory-counter activity at a fixed virtual-time interval,
// exportable as CSV.
//
// Both are driven by the deterministic event engine, so for a fixed seed the
// exported bytes are identical run to run. A nil *Tracer is the disabled
// state: call sites guard emissions with On(), which costs one branch
// (proven by BenchmarkTracerDisabled), and an unguarded emission on it
// panics. An enabled tracer has exactly one output, a func(Event): a Log
// buffers for export, a Recorder keeps the failure flight ring, a
// StreamWriter streams NDJSON, and Tee combines them.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ccnuma/internal/sim"
)

// Kind is the type of an observability event.
type Kind uint8

const (
	// KindPageMigrated: a page's master copy moved between nodes.
	KindPageMigrated Kind = iota
	// KindPageReplicated: a copy of a page was created on a new node.
	KindPageReplicated
	// KindReplicaCollapsed: a page's replicas were collapsed to one copy.
	KindReplicaCollapsed
	// KindTLBShootdown: a TLB flush covering one or more pages.
	KindTLBShootdown
	// KindHotPageInterrupt: the pager interrupt servicing a hot-page batch.
	KindHotPageInterrupt
	// KindPolicyDecision: one Figure-1 decision-tree evaluation.
	KindPolicyDecision
	// KindCounterReset: the periodic directory-counter reset.
	KindCounterReset
	// KindReplicaReclaimed: replicas reclaimed outside the write-trap path
	// (memory pressure or the cold-replica sweep).
	KindReplicaReclaimed
	// KindFaultInjected: the fault layer fired (Action names the fault).
	KindFaultInjected
	// KindOpDeferred: an operation that failed allocation entered the pager's
	// deferral queue (N is the attempt count).
	KindOpDeferred
	// KindOpAbandoned: a deferred operation was dropped after exhausting its
	// retries or the queue's capacity.
	KindOpAbandoned
	// KindPolicyThrottled: the pager shed a hot-page batch because its
	// overhead exceeded the kernel-overhead budget (N is the batch size).
	KindPolicyThrottled
	kindCount
)

var kindNames = [...]string{
	KindPageMigrated:     "page-migrated",
	KindPageReplicated:   "page-replicated",
	KindReplicaCollapsed: "replica-collapsed",
	KindTLBShootdown:     "tlb-shootdown",
	KindHotPageInterrupt: "hot-page-interrupt",
	KindPolicyDecision:   "policy-decision",
	KindCounterReset:     "counter-reset",
	KindReplicaReclaimed: "replica-reclaimed",
	KindFaultInjected:    "fault-injected",
	KindOpDeferred:       "op-deferred",
	KindOpAbandoned:      "op-abandoned",
	KindPolicyThrottled:  "policy-throttled",
}

// String names the kind as it appears in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses a kind name back to its value, so flight-recorder
// dumps embedded in failure manifests round-trip through JSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i := Kind(0); i < kindCount; i++ {
		if kindNames[i] == s {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one timestamped observability record. Fields that do not apply to
// a kind hold the NewEvent sentinels (-1 for ids, zero elsewhere), so every
// export line has the same shape.
type Event struct {
	// At is the virtual time of the event.
	At sim.Time `json:"at"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// CPU is the processor involved (-1 when not CPU-specific).
	CPU int `json:"cpu"`
	// Node is the node the event acts on (-1 when machine-wide).
	Node int `json:"node"`
	// Page is the logical page involved (-1 when not page-specific).
	Page int64 `json:"page"`
	// From and To are source/destination nodes for copies that move.
	From int `json:"from"`
	To   int `json:"to"`
	// Action and Reason describe a policy decision's branch.
	Action string `json:"action,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Miss is the triggering CPU's miss counter; MissOther the largest other
	// counter; Writes the page's write counter (policy decisions).
	Miss      uint16 `json:"miss"`
	MissOther uint16 `json:"miss_other"`
	Writes    uint16 `json:"writes"`
	// Trigger and Sharing are the thresholds in force when the event fired.
	Trigger uint16 `json:"trigger"`
	Sharing uint16 `json:"sharing"`
	// N counts the event's objects: batch size, pages flushed, frames freed.
	N int `json:"n"`
	// Dur is the simulated time the operation consumed (0 for instants).
	Dur sim.Time `json:"dur"`
}

// NewEvent returns an event of the given kind with id fields set to the
// not-applicable sentinel.
func NewEvent(k Kind) Event {
	return Event{Kind: k, CPU: -1, Node: -1, Page: -1, From: -1, To: -1}
}

// Tracer hands typed events to one output as they are emitted. The nil
// *Tracer is the disabled tracer: On() reports false, and every emit site
// sits behind an On() guard, so instrumented code pays one branch and
// nothing else. Emit and EmitNow panic on nil rather than tolerating it: an
// unguarded call would build its event for nothing, and the panic makes
// that fail loudly in any test run with tracing off. Outputs are plain
// func(Event) values — Log.Add buffers, Recorder.Record keeps the flight
// ring, StreamWriter.Sink streams NDJSON — and Tee fans one event out to
// several. Outputs are called synchronously from the emitting goroutine.
type Tracer struct {
	clock func() sim.Time
	out   func(Event)
}

// NewTracer builds an enabled tracer feeding out. clock stamps EmitNow
// events and may be nil when every emitter stamps its own; out must be
// non-nil.
func NewTracer(clock func() sim.Time, out func(Event)) *Tracer {
	if out == nil {
		panic("obs: tracer needs an output")
	}
	return &Tracer{clock: clock, out: out}
}

// On reports whether the tracer is collecting. Safe on nil.
func (t *Tracer) On() bool { return t != nil }

// Emit hands an event to the output. Callers guard it with On(); it panics
// on nil.
func (t *Tracer) Emit(e Event) { t.out(e) }

// EmitNow emits an event stamped with the tracer's clock. Callers guard it
// with On(); it panics on nil.
func (t *Tracer) EmitNow(e Event) {
	if t.clock != nil {
		e.At = t.clock()
	}
	t.out(e)
}

// Tee returns an output handing each event to every non-nil out, in
// argument order. It returns nil when every out is nil and the single
// output itself when only one is set, so a lone output costs no extra call.
func Tee(outs ...func(Event)) func(Event) {
	var live []func(Event)
	for _, o := range outs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, o := range live {
			o(e)
		}
	}
}

// Log is the buffering output: it keeps every event it is handed, for
// post-run export. Its Add method is the output; the nil *Log holds nothing.
type Log struct {
	events []Event
}

// Add appends one event.
func (l *Log) Add(e Event) { l.events = append(l.events, e) }

// Len returns the number of buffered events. Safe on nil.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Sort orders the events by time (stable: equal-time events keep emission
// order). The pager advances a local clock past the engine's, so events are
// added only approximately in time order; exports call this first.
func (l *Log) Sort() {
	if l == nil {
		return
	}
	sort.SliceStable(l.events, func(i, j int) bool {
		return l.events[i].At < l.events[j].At
	})
}

// Events returns the buffered events in their current order. The slice is
// shared; do not mutate.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// CountKind returns how many buffered events have the given kind.
func (l *Log) CountKind(k Kind) int {
	n := 0
	for _, e := range l.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// WriteJSONL writes one JSON object per event, in time order. The output is
// byte-deterministic for a deterministic event sequence.
func (l *Log) WriteJSONL(w io.Writer) error {
	l.Sort()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
