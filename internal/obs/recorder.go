package obs

import "sync"

// Recorder is the failure flight recorder: a bounded ring over the last N
// typed events of a run, kept so a panic, timeout, or failed run can dump
// recent history into its failure manifest without re-running under full
// event collection.
//
// The ring is sized once at construction and never grows — recording into a
// full ring overwrites the oldest slot, so steady-state recording allocates
// nothing (pinned by TestRecorderSteadyStateZeroAlloc). A mutex serializes
// Record and Dump, so a harness dumping a timed-out run's recorder while its
// abandoned goroutine is still simulating is safe. A nil *Recorder is the disabled state and costs
// the caller one branch (pinned by BenchmarkRecorderDisabled).
type Recorder struct {
	mu    sync.Mutex
	buf   []Event
	head  int // index of the oldest event when the ring is full
	n     int // live events (== len(buf) once wrapped)
	total uint64
}

// NewRecorder builds a recorder holding the last depth events. depth < 1
// returns nil (the disabled recorder).
func NewRecorder(depth int) *Recorder {
	if depth < 1 {
		return nil
	}
	return &Recorder{buf: make([]Event, depth)}
}

// On reports whether the recorder is active. Safe on nil.
func (r *Recorder) On() bool { return r != nil }

// Depth returns the ring capacity. Safe on nil.
func (r *Recorder) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Record appends an event to the ring, evicting the oldest once full. No-op
// on nil.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = e
		r.n++
	} else {
		r.buf[r.head] = e
		r.head = (r.head + 1) % len(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Total returns how many events have ever been recorded. Safe on nil.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dump returns the ring's events oldest-first plus the number of events
// that fell off the ring before the dump — the truncation marker (0 means
// the dump is the complete history). Safe on nil and safe to call while
// another goroutine is still recording.
func (r *Recorder) Dump() (events []Event, dropped uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	events = make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		events = append(events, r.buf[(r.head+i)%len(r.buf)])
	}
	return events, r.total - uint64(r.n)
}
