package core

import (
	"runtime"
	"sync/atomic"

	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// A process's step stream reads nothing from the machine (Gen.Fill defers
// the one CPU-dependent pick to the consumer), so it is generated ahead of
// the event loop: each process spec has a step feed, a ring of ringLen
// chunks of chunkLen steps, and during Run one helper goroutine fills the
// rings while the CPU step loop reads them. Events are still dispatched in
// order on the run's goroutine; only the pure per-process stream moves. The
// consumer makes a chunk itself whenever the next one is not ready, so a
// slow or absent helper costs speed, never bytes.
const (
	chunkLen = 2048
	ringLen  = 3
)

// chunk is one made stretch of a stream: its refs and the durations of its
// StepBlock refs, in order.
type chunk struct {
	refs   []workload.Ref
	n      int
	blocks []sim.Time
}

// feed is one process spec's step stream. Its Gen is advanced only by the
// holder of claim, one chunk at a time and in order.
type feed struct {
	gen *workload.Gen

	// The consumer's side, touched on every step: the chunk being read and
	// the read positions in its refs and block durations, the pages
	// resolved for deferred refs, and the index of the next chunk to read.
	refs   []workload.Ref
	pos    int
	blocks []sim.Time
	bpos   int
	res    workload.Resolver
	next   uint64

	// The cache line the helper writes stays off the consumer's cursor.
	_ [64]byte

	claim atomic.Bool
	// made counts the chunks made since the last Reset; head is the oldest
	// chunk the consumer may still read, so chunks head to made-1 are live
	// and a chunk may be made only while made < head+ringLen.
	made atomic.Uint64
	head atomic.Uint64
	// done is set once the stream has made its StepExit; failed holds a
	// panic raised making a chunk on the helper, for the consumer to
	// rethrow. Both are read and written with claim held.
	done   bool
	failed any
	ring   [ringLen]chunk
}

// block returns the duration of the StepBlock read last.
func (f *feed) block() sim.Time {
	d := f.blocks[f.bpos]
	f.bpos++
	return d
}

// advance moves to the next chunk, making it if it is not ready, and
// returns its first ref. The step loop reads the other refs of a chunk
// itself, f.refs[f.pos] while f.pos < len(f.refs).
func (f *feed) advance(h *helper) workload.Ref {
	k := f.next
	f.head.Store(k) // the previous chunk is read out
	if f.made.Load() <= k {
		f.lock()
		if f.made.Load() <= k { // the helper did not make it meanwhile
			if f.failed != nil {
				f.claim.Store(false)
				panic(f.failed)
			}
			f.make()
		}
		f.claim.Store(false)
	}
	ch := &f.ring[k%ringLen]
	f.refs, f.pos = ch.refs[:ch.n], 1
	f.blocks, f.bpos = ch.blocks, 0
	f.next = k + 1
	h.poke()
	return f.refs[0]
}

// make fills chunk made; claim is held.
func (f *feed) make() {
	k := f.made.Load()
	ch := &f.ring[k%ringLen]
	if ch.refs == nil {
		ch.refs = make([]workload.Ref, chunkLen)
	}
	ch.n, ch.blocks = f.gen.Fill(ch.refs, ch.blocks[:0])
	f.done = ch.refs[ch.n-1].Kind() == workload.StepExit
	f.made.Store(k + 1)
}

// lock takes the claim, yielding while the helper holds it.
func (f *feed) lock() {
	for !f.claim.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}

// reset re-seeds the Gen for a respawned process and empties the ring.
func (f *feed) reset(seed uint64) {
	f.lock()
	f.gen.Reset(seed)
	f.made.Store(0)
	f.head.Store(0)
	f.next = 0
	f.refs, f.pos, f.blocks, f.bpos = nil, 0, nil, 0
	f.done, f.failed = false, nil
	f.claim.Store(false)
}

// fillOne makes one chunk if the feed is free, unfinished and has room,
// recording a panic for the consumer.
func (f *feed) fillOne() {
	if !f.claim.CompareAndSwap(false, true) {
		return
	}
	defer f.claim.Store(false)
	if f.done || f.failed != nil || f.made.Load() >= f.head.Load()+ringLen {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			f.failed = v
		}
	}()
	f.make()
}

// helper is the goroutine that fills a run's feeds ahead of the consumer.
// A pass makes at most one chunk per feed. After a pass it parks unless the
// consumer moved to a new chunk during the pass, so it works only as fast
// as chunks are read, and parking hands its processor back to the scheduler
// (and a server's network poller); the consumer wakes it only when it is
// parked.
type helper struct {
	feeds  []*feed
	state  atomic.Int32 // busy, parked or again
	wake   chan struct{}
	quit   chan struct{}
	exited chan struct{}
}

// The helper's states: busy in a pass; parked; busy, with a chunk read
// since the pass began, so another pass follows.
const (
	busy int32 = iota
	parked
	again
)

func startHelper(feeds []*feed) *helper {
	h := &helper{
		feeds:  feeds,
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go h.run()
	return h
}

func (h *helper) run() {
	defer close(h.exited)
	for {
		for _, f := range h.feeds {
			select {
			case <-h.quit:
				return
			default:
			}
			f.fillOne()
		}
		if !h.state.CompareAndSwap(busy, parked) {
			h.state.Store(busy)
			continue
		}
		select {
		case <-h.wake:
		case <-h.quit:
			return
		}
	}
}

// poke tells the helper a chunk was read: it wakes a parked helper and
// asks a busy one for another pass. A nil helper (a run driven without
// Run) does nothing.
func (h *helper) poke() {
	if h == nil {
		return
	}
	switch h.state.Load() {
	case parked:
		if h.state.CompareAndSwap(parked, busy) {
			h.wake <- struct{}{}
		}
	case busy:
		h.state.CompareAndSwap(busy, again)
	}
}

// stop ends the helper and waits for it to exit, after which no goroutine
// but the caller's touches the feeds.
func (h *helper) stop() {
	close(h.quit)
	<-h.exited
}
