package main

import (
	"math"
	"sync"
	"time"
)

// outcome is one scheduled request of an open-loop phase. Times are offsets
// from the phase start.
type outcome struct {
	due  time.Duration // when the schedule said to send it
	sent time.Duration // when a sender got to it (sent-due is generator lateness)
	done time.Duration // when the response was read
	// slept marks a request whose sender was free before it was due and
	// slept until then; sent-due is then the timer's overshoot.
	slept bool
	// skipped marks a request never sent because its sender was more than
	// maxLate behind schedule: the phase already failed to keep up.
	skipped bool
	ok      bool
	stream  int // the sender that sent it
}

// latencyNS is the request's open-loop latency in nanoseconds: from when it
// was due, so a stall is charged to every request it delays, even those a
// busy sender could not send on time. Only when the sender was idle and
// slept is the clock started at the wake-up instead: a sleep that overshoots
// is the generator's own error, not the server's (it is still reported as
// lateness). A failed or refused request has infinite latency: it misses
// any limit.
func (o outcome) latencyNS() float64 {
	switch {
	case !o.ok:
		return math.Inf(1)
	case o.slept:
		return float64(o.done - o.sent)
	}
	return float64(o.done - o.due)
}

// never is the duration a percentile reads as when a failure lands on it.
const never = time.Duration(math.MaxInt64)

func toDuration(ns float64) time.Duration {
	if ns >= float64(never) {
		return never
	}
	return time.Duration(ns)
}

// maxLate is how far behind schedule a sender may fall before it stops
// sending; past it the offered rate is not being served, and skipping ends
// a failing phase early.
const maxLate = time.Second

// openLoop sends n requests due at i/rate seconds from the start, skipping
// those a sender reaches more than maxLate after they were due. Request i
// goes out on sender streamOf(i); each sender sends its own requests in
// order, one at a time, over its own connection (inside send), so a slow
// request delays the later requests of its stream but never those of
// another. send(worker, i) performs request i and reports success. It
// returns once every request has completed or been skipped.
func openLoop(senders int, rate float64, n int, streamOf func(i int) int, send func(worker, i int) bool) []outcome {
	outs := make([]outcome, n)
	queues := make([][]int, senders)
	for i := range outs {
		outs[i].due = dueAt(i, rate)
		outs[i].stream = streamOf(i)
		queues[outs[i].stream] = append(queues[outs[i].stream], i)
	}
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(senders)
	for w := 0; w < senders; w++ {
		go func(w int) {
			defer wg.Done()
			for _, i := range queues[w] {
				o := &outs[i]
				if d := o.due - time.Since(start); d > 0 {
					time.Sleep(d)
					o.slept = true
				}
				o.sent = time.Since(start)
				if o.sent-o.due > maxLate {
					o.skipped = true
					continue
				}
				o.ok = send(w, i)
				o.done = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	return outs
}

// dueAt is request i's scheduled send offset at the given rate.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// phaseStats summarises an open-loop phase.
type phaseStats struct {
	rate      float64
	n         int // requests sent
	failed    int
	skipped   int
	p50, p99  time.Duration // open-loop latency; infinite when a failure lands there
	lateP99   time.Duration // generator lateness
	finalLate time.Duration // largest lateness of a stream's last request sent
	lateBy    int           // the stream finalLate is from
	enoughP99 bool          // n supports a p99 under the minTail rule
}

// summarize computes a phase's latency percentiles and generator lateness.
func summarize(rate float64, outs []outcome) phaseStats {
	st := phaseStats{rate: rate}
	var lat, late []float64
	final := map[int]time.Duration{} // each stream's last lateness
	for _, o := range outs {
		if o.skipped {
			st.skipped++
			continue
		}
		st.n++
		if !o.ok {
			st.failed++
		}
		lat = append(lat, o.latencyNS())
		late = append(late, float64(o.sent-o.due))
		final[o.stream] = o.sent - o.due
	}
	for s, l := range final {
		if l > st.finalLate {
			st.finalLate, st.lateBy = l, s
		}
	}
	if st.n == 0 {
		return st
	}
	p50, _ := percentile(lat, 50)
	st.p50 = toDuration(p50)
	p99, err := percentile(lat, 99)
	st.enoughP99 = err == nil
	st.p99 = toDuration(p99)
	if lp, err := percentile(late, 99); err == nil {
		st.lateP99 = time.Duration(lp)
	}
	return st
}

// meets reports whether the phase served its rate: enough samples for a
// p99, that p99 within limit, nothing skipped, and no stream further
// behind at the end than the limit (a growing backlog shows as growing
// lateness, since at most one request per sender is in flight).
func (st phaseStats) meets(limit time.Duration) bool {
	return st.enoughP99 && st.skipped == 0 && st.p99 <= limit && st.finalLate <= limit
}

// summarizeBlocks summarises blocks of one rate, each its own open loop,
// and reports the median block's latency percentiles; counts cover every
// block, lateness is the worst block's, and a p99 needs enough samples in
// every block. A failed request anywhere reports the pooled percentiles
// instead, so a failure is never hidden in a block the median passes over.
func summarizeBlocks(rate float64, blocks [][]outcome) phaseStats {
	var all []outcome
	for _, b := range blocks {
		all = append(all, b...)
	}
	st := summarize(rate, all)
	if len(blocks) <= 1 || st.failed > 0 {
		return st
	}
	var p50s, p99s []float64
	st.finalLate = 0
	for _, b := range blocks {
		bs := summarize(rate, b)
		p50s = append(p50s, float64(bs.p50))
		p99s = append(p99s, float64(bs.p99))
		st.enoughP99 = st.enoughP99 && bs.enoughP99
		if bs.finalLate > st.finalLate {
			st.finalLate, st.lateBy = bs.finalLate, bs.lateBy
		}
	}
	st.p50 = toDuration(median(p50s))
	st.p99 = toDuration(median(p99s))
	return st
}
