package sim

// Event is a callback scheduled at a point in virtual time. The callback
// receives the engine's current time, which equals the time the event was
// scheduled for.
type Event func(now Time)

// Handler is a typed event callback registered once with Register and then
// scheduled any number of times by kind. Scheduling a typed event stores only
// a plain {at, seq, kind, arg} heap item, so the hot paths that re-schedule
// the same logical event for an entire run (a CPU's step chain, a periodic
// tick) allocate nothing per event. arg is the payload supplied at
// scheduling time (a CPU index, an encoded process identity).
type Handler func(now Time, arg uint64)

// Kind identifies a registered Handler.
type Kind int32

// noKind marks closure items; typed items carry a registered Kind >= 0.
const noKind Kind = -1

type item struct {
	at   Time
	seq  uint64 // tie-break so equal-time events fire in schedule order
	fn   Event  // closure events; nil for typed events
	kind Kind   // typed events: index into the handler table
	arg  uint64 // typed events: scheduling-time payload
}

// cancelMask spaces the run loops' cancellation polls: the cancel predicate
// is consulted once every cancelMask+1 dispatches, so cooperative
// cancellation (a context check) costs nothing measurable on the hot path
// while a cancelled run still stops within ~1k events — microseconds of wall
// time. Cancellation never changes a completed run's bytes: a run that stops
// early is a failure (the caller discards the partial state), so the
// byte-identical-output guarantee is untouched.
const cancelMask = 1023

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now      Time
	seq      uint64
	heap     []item
	fired    uint64
	handlers []Handler

	// cancel, when set, is polled by the run loops (every cancelMask+1
	// dispatches); a true return stops dispatching. The predicate must be
	// cheap and safe to call from the run loop's goroutine.
	cancel func() bool

	// Periodic schedules share one registered kind (periodicKind) whose arg
	// indexes periodics, so calling Every any number of times grows the
	// handler table by at most one entry — repeated periodic scheduling must
	// be O(1) in table growth.
	periodics    []periodic
	periodicKind Kind
	hasPeriodic  bool
}

// periodic is one Every schedule: the callback, its period, and its stop
// predicate, re-armed by the shared periodic tick handler.
type periodic struct {
	period Time
	fn     Event
	stop   func() bool
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetCancel installs a cancellation predicate polled by RunUntil every
// cancelMask+1 dispatches. When it returns true the run loop stops without
// advancing the clock to the deadline; the caller is expected to discard the
// partial run (core.RunContext turns it into an error). Pass nil to clear.
func (e *Engine) SetCancel(fn func() bool) { e.cancel = fn }

// cancelled reports whether the cancellation predicate asks the run loop to
// stop. Polled on a dispatch-count stride so the nil/false common case is one
// predictable branch.
func (e *Engine) cancelled() bool {
	return e.cancel != nil && e.fired&cancelMask == 0 && e.cancel()
}

// Fired returns the number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled events not yet dispatched.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it would violate the non-decreasing-time invariant.
func (e *Engine) At(at Time, fn Event) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.heap = append(e.heap, item{at: at, seq: e.seq, fn: fn, kind: noKind})
	e.up(len(e.heap) - 1)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn Event) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+d, fn)
}

// Register installs h in the engine's handler table and returns the Kind to
// schedule it under. Registration is the once-per-subsystem setup cost of the
// typed event path; AtKind/AfterKind then schedule it allocation-free. Typed
// and closure events share one queue, so their relative order follows the
// usual (time, schedule-order) rule.
func (e *Engine) Register(h Handler) Kind {
	if h == nil {
		panic("sim: nil handler")
	}
	e.handlers = append(e.handlers, h)
	return Kind(len(e.handlers) - 1)
}

// AtKind schedules the handler registered under k to run at absolute time at
// with the given arg. Like At, scheduling in the past panics.
func (e *Engine) AtKind(at Time, k Kind, arg uint64) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	if k < 0 || int(k) >= len(e.handlers) {
		panic("sim: unregistered event kind")
	}
	e.seq++
	e.heap = append(e.heap, item{at: at, seq: e.seq, kind: k, arg: arg})
	e.up(len(e.heap) - 1)
}

// AfterKind schedules the handler registered under k to run d nanoseconds
// from now with the given arg.
func (e *Engine) AfterKind(d Time, k Kind, arg uint64) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.AtKind(e.now+d, k, arg)
}

// Every schedules fn at now+period, now+2*period, ... until stop returns
// true (checked after each firing). All periodic schedules share one
// registered tick handler whose arg indexes the periodics table, so repeated
// Every calls grow the handler table by at most one entry and each period
// costs one allocation-free AfterKind re-arm.
func (e *Engine) Every(period Time, fn Event, stop func() bool) {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	if !e.hasPeriodic {
		e.periodicKind = e.Register(e.periodicTick)
		e.hasPeriodic = true
	}
	e.periodics = append(e.periodics, periodic{period: period, fn: fn, stop: stop})
	e.AfterKind(period, e.periodicKind, uint64(len(e.periodics)-1))
}

// periodicTick fires one periodic schedule and re-arms it unless stopped.
func (e *Engine) periodicTick(now Time, arg uint64) {
	p := &e.periodics[arg]
	p.fn(now)
	if p.stop == nil || !p.stop() {
		e.AfterKind(p.period, e.periodicKind, arg)
	}
}

// Step dispatches the next event, advancing the clock to its time. It
// returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.down(0)
	}
	e.now = top.at
	e.fired++
	if top.fn != nil {
		top.fn(e.now)
	} else {
		e.handlers[top.kind](e.now, top.arg)
	}
	return true
}

// RunUntil dispatches events until the queue is empty or the next event is
// after deadline, then advances the clock to deadline. The clock always ends
// at max(deadline, last dispatched event) — even when the queue drains early
// — so wall-clock-style readings of Now after a run are well defined.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		if e.cancelled() {
			return
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run dispatches events until none remain.
func (e *Engine) Run() {
	for !e.cancelled() && e.Step() {
	}
}

func (e *Engine) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(i, p) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

func (e *Engine) down(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && e.less(l, small) {
			small = l
		}
		if r < n && e.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
}

func (e *Engine) less(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
