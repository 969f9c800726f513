package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSamplesForPercentile(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{99, 1000}, {90, 100}, {99.9, 10000}, {95, 200}} {
		if got := samplesFor(c.p); got != c.want {
			t.Errorf("samplesFor(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples accepted; it leaves fewer than 10 beyond it")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank: the 990th smallest of 1..1000, with 10 samples above.
	if got != 990 {
		t.Fatalf("p99 = %g, want 990", got)
	}
	if m, err := percentile([]float64{3}, 50); err != nil || m != 3 {
		t.Fatalf("median of one sample = %g, %v", m, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestDueTimes(t *testing.T) {
	if got := dueAt(0, 250); got != 0 {
		t.Errorf("first request due at %v", got)
	}
	if got := dueAt(250, 250); got != time.Second {
		t.Errorf("request 250 at 250 rps due at %v, want 1s", got)
	}
}

// outs builds a phase of n requests at rate whose service takes svc and
// whose sender was late by late(i).
func synthetic(n int, rate float64, svc time.Duration, late func(i int) time.Duration) []outcome {
	outs := make([]outcome, n)
	for i := range outs {
		due := dueAt(i, rate)
		sent := due + late(i)
		outs[i] = outcome{due: due, sent: sent, done: sent + svc, ok: true}
	}
	return outs
}

func TestSummarizeChargesLatenessToLatency(t *testing.T) {
	// Every request is sent 4 ms late and served in 1 ms: open-loop latency
	// is 5 ms, not the 1 ms a closed-loop timer would see.
	st := summarize(1000, synthetic(1000, 1000, time.Millisecond, func(int) time.Duration { return 4 * time.Millisecond }))
	if st.p50 != 5*time.Millisecond || st.p99 != 5*time.Millisecond {
		t.Fatalf("p50 %v p99 %v, want 5ms each", st.p50, st.p99)
	}
	if st.lateP99 != 4*time.Millisecond || st.finalLate != 4*time.Millisecond {
		t.Fatalf("lateness p99 %v final %v, want 4ms", st.lateP99, st.finalLate)
	}
	if !st.enoughP99 || !st.meets(10*time.Millisecond) || st.meets(4*time.Millisecond) {
		t.Fatalf("limit verdicts wrong: %+v", st)
	}
}

func TestTimerOvershootIsNotLatency(t *testing.T) {
	// A sender that slept and woke 3 ms late: the overshoot is lateness,
	// not latency. A busy sender that got to the request 3 ms late: the
	// wait is the system's backlog and counts.
	o := outcome{due: 10 * time.Millisecond, sent: 13 * time.Millisecond, done: 14 * time.Millisecond, ok: true}
	busy := o
	o.slept = true
	if got := time.Duration(o.latencyNS()); got != time.Millisecond {
		t.Errorf("slept sender: latency %v, want 1ms", got)
	}
	if got := time.Duration(busy.latencyNS()); got != 4*time.Millisecond {
		t.Errorf("busy sender: latency %v, want 4ms", got)
	}
	st := summarize(1, []outcome{o})
	if st.lateP99 != 0 || st.finalLate != 3*time.Millisecond {
		t.Errorf("lateness not reported: %+v", st)
	}
}

func TestSummarizeGrowingBacklogFails(t *testing.T) {
	// The sender falls 0.1 ms further behind per request: by the end it is
	// 99.9 ms late. Even with the p99 forced within the limit, the
	// final-lateness rule refuses the rate.
	outs := synthetic(1000, 1000, time.Millisecond, func(i int) time.Duration {
		return time.Duration(i) * 100 * time.Microsecond
	})
	st := summarize(1000, outs)
	if st.finalLate != 99900*time.Microsecond {
		t.Fatalf("final lateness %v", st.finalLate)
	}
	st.p99 = 0
	if st.meets(50 * time.Millisecond) {
		t.Fatal("a growing backlog met the limit")
	}
	if !st.meets(100 * time.Millisecond) {
		t.Fatal("a backlog within the limit failed it")
	}
}

func TestSummarizeFailuresAndSkips(t *testing.T) {
	outs := synthetic(1000, 1000, time.Millisecond, func(int) time.Duration { return 0 })
	for i := 0; i < 11; i++ {
		outs[i].ok = false
	}
	st := summarize(1000, outs)
	if st.failed != 11 || st.p99 != time.Duration(math.MaxInt64) {
		t.Fatalf("11 failures: failed=%d p99=%v, want an infinite p99", st.failed, st.p99)
	}
	if st.meets(time.Hour) {
		t.Fatal("failures met the limit")
	}
	outs = synthetic(1010, 1000, time.Millisecond, func(int) time.Duration { return 0 })
	outs[5].skipped = true
	st = summarize(1000, outs)
	if st.skipped != 1 || st.n != 1009 || st.meets(time.Hour) {
		t.Fatalf("a skipped request: %+v", st)
	}
	if st := summarize(1000, synthetic(500, 1000, time.Millisecond, func(int) time.Duration { return 0 })); st.meets(time.Hour) {
		t.Fatal("500 samples met a p99 limit")
	}
}

func TestSummarizeBlocksReportsMedianBlock(t *testing.T) {
	// Three blocks of 1010 requests; the second sits behind a 40 ms stall
	// and the third is served 1 ms slower. The median block's percentiles
	// are reported, counts cover all, lateness is the worst block's.
	var blocks [][]outcome
	for _, c := range []struct{ svc, late time.Duration }{
		{2 * time.Millisecond, 0}, {2 * time.Millisecond, 40 * time.Millisecond}, {3 * time.Millisecond, 0},
	} {
		blocks = append(blocks, synthetic(1010, 1000, c.svc, func(int) time.Duration { return c.late }))
	}
	st := summarizeBlocks(1000, blocks)
	if st.p50 != 3*time.Millisecond || st.p99 != 3*time.Millisecond || st.n != 3030 || !st.enoughP99 {
		t.Fatalf("median block: %+v", st)
	}
	if st.finalLate != 40*time.Millisecond {
		t.Fatalf("final lateness %v, want the stalled block's 40ms", st.finalLate)
	}
	// Blocks too small for their own p99 refuse the rate.
	small := [][]outcome{blocks[0][:667], blocks[1][:667], blocks[2][:666]}
	if st := summarizeBlocks(1000, small); st.enoughP99 {
		t.Fatal("667-request blocks supported a p99")
	}
	// A failure reports the pooled (here infinite) p99.
	blocks[0][5].ok = false
	for i := 0; i < 40; i++ {
		blocks[1][100+i].ok = false
	}
	if st := summarizeBlocks(1000, blocks); st.p99 != never {
		t.Fatalf("failures hidden: p99 %v", st.p99)
	}
}

func TestFinalLatenessIsPerStream(t *testing.T) {
	// Stream 1 ends 80 ms behind; stream 0's later requests are on time.
	// The phase's final lateness is the worse stream's, whatever the order.
	outs := synthetic(1000, 1000, time.Millisecond, func(i int) time.Duration {
		if i%50 == 49 {
			return 80 * time.Millisecond
		}
		return 0
	})
	for i := range outs {
		if i%50 == 49 {
			outs[i].stream = 1
		}
	}
	if st := summarize(1000, outs); st.finalLate != 80*time.Millisecond || st.meets(50*time.Millisecond) {
		t.Fatalf("backlogged stream hidden: %+v", st)
	}
}

func TestOpenLoopSendsOnSchedule(t *testing.T) {
	const n, rate = 40, 400.0
	streamOf := func(i int) int { return i % 2 }
	outs := openLoop(2, rate, n, streamOf, func(_, i int) bool { return i != 3 })
	for i, o := range outs {
		if o.due != dueAt(i, rate) {
			t.Fatalf("request %d due %v", i, o.due)
		}
		if o.sent < o.due {
			t.Fatalf("request %d sent %v before due %v", i, o.sent, o.due)
		}
		if i == 0 && o.slept {
			t.Fatal("request 0, due at once, slept")
		}
		if o.ok != (i != 3) || o.skipped || o.stream != streamOf(i) {
			t.Fatalf("request %d outcome %+v", i, o)
		}
	}
}

func TestOpenLoopStreamsAreIndependent(t *testing.T) {
	// Request 1 is the only one on stream 1 and takes 200 ms. Stream 0's
	// requests due in the first 50 ms are sent while it is still in
	// flight, and stream 1 keeps its own order.
	const n, rate = 40, 400.0
	streamOf := func(i int) int {
		if i == 1 {
			return 1
		}
		return 0
	}
	outs := openLoop(2, rate, n, streamOf, func(w, i int) bool {
		if w != streamOf(i) {
			t.Errorf("request %d sent by sender %d", i, w)
		}
		if i == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		return true
	})
	for i := 2; i <= 20; i++ {
		if outs[i].sent >= outs[1].done {
			t.Fatalf("request %d (stream 0, due %v) waited for stream 1's slow request: sent %v, slow done %v",
				i, outs[i].due, outs[i].sent, outs[1].done)
		}
	}
}

func TestSearchLadderFindsKnee(t *testing.T) {
	threshold := func(knee int) func(int) (bool, error) {
		return func(k int) (bool, error) { return k <= knee, nil }
	}
	for _, c := range []struct{ start, knee, want int }{
		{41, 56, 56},
		{41, 69, 69},
		{41, ladderRungs + 5, ladderRungs - 1}, // every probe passes: the top rung
		{-1, 3, 3},                             // no fixed rate met the limit
		{-1, -1, -1},                           // no rung meets it
	} {
		got, err := searchLadder(c.start, threshold(c.knee))
		if err != nil || got != c.want {
			t.Errorf("start %d knee %d: got %d, %v; want %d", c.start, c.knee, got, err, c.want)
		}
	}
	// A spurious failure at the first bisection probe, below the knee: a
	// plain bisection would end a rung low; the tracking probes climb back.
	n := 0
	got, _ := searchLadder(41, func(k int) (bool, error) {
		n++
		return k <= 56 && n != 1, nil
	})
	if got != 56 || n != ladderProbes {
		t.Errorf("with a spurious failure: got %d after %d probes, want 56 after %d", got, n, ladderProbes)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "build", Start: 10 * ms, End: 30 * ms},
		// Two overlapping children (concurrent calls) count once.
		{ID: 3, Parent: 1, Name: "sim", Start: 40 * ms, End: 70 * ms},
		{ID: 4, Parent: 1, Name: "sim", Start: 60 * ms, End: 80 * ms},
		// A child running past its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "render", Start: 90 * ms, End: 120 * ms},
		{ID: 6, Parent: 3, Name: "step", Start: 45 * ms, End: 50 * ms},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"run":    {Count: 1, Total: 100 * ms, Self: 30 * ms},
		"build":  {Count: 1, Total: 20 * ms, Self: 20 * ms},
		"sim":    {Count: 2, Total: 50 * ms, Self: 45 * ms},
		"render": {Count: 1, Total: 30 * ms, Self: 30 * ms},
		"step":   {Count: 1, Total: 5 * ms, Self: 5 * ms},
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: got %+v, want %+v", k, got[k], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr = newTracer()
	a := tr.begin("a", 0, 7)
	b := tr.begin("b", a, 7)
	tr.end(b)
	tr.end(a)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != a || s[1].Req != 7 || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}

const topText = `File: perfbench
Type: cpu
Duration: 2.01s, Total samples = 1900ms (94.53%)
Showing nodes accounting for 1900ms, 100% of 1900ms total
      flat  flat%   sum%        cum   cum%
     600ms 31.58% 31.58%      900ms 47.37%  ccnuma/internal/workload.(*Gen).Next
     300ms 15.79% 47.37%      300ms 15.79%  ccnuma/internal/cache.(*Cache).Lookup (inline)
     200ms 10.53% 57.89%     1500ms 78.95%  ccnuma/internal/core.(*System).access
     200ms 10.53% 68.42%      200ms 10.53%  ccnuma/internal/kernel/pager.(*Pager).HandleBatch
     100ms  5.26% 73.68%      100ms  5.26%  ccnuma/internal/kernel/vm.(*VM).Touch
     150ms  7.89% 81.58%      150ms  7.89%  runtime.mallocgc
      50ms  2.63% 84.21%       50ms  2.63%  runtime/internal/atomic.Load
     200ms 10.53% 94.74%      200ms 10.53%  ccnuma/internal/sim.(*Engine).Step
     100ms  5.26%   100%      100ms  5.26%  sort.Slice
         0     0%   100%     1900ms   100%  main.main
`

func TestFoldTop(t *testing.T) {
	got, err := foldTop([]byte(topText))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"workload": 600, "cache": 300, "core": 200, "kernel": 300,
		"runtime": 200, "sim": 200, "other": 100,
	}
	for k, v := range want {
		if math.Abs(got[k]-v/1900) > 1e-12 {
			t.Errorf("%s share = %g, want %g", k, got[k], v/1900)
		}
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	if _, err := foldTop([]byte("File: x\nno table here\n")); err == nil {
		t.Error("text without a table folded")
	}
	if _, err := foldTop([]byte(strings.Replace(topText, "600ms", "6x0ms", 1))); err == nil {
		t.Error("a malformed row folded")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ccnuma/internal/directory.(*Counters).Record":              "directory",
		"ccnuma/internal/kernel/alloc.(*Alloc).AllocOn":             "kernel",
		"ccnuma/internal/interconnect.(*Resource).Request (inline)": "interconnect",
		"runtime.gcBgMarkWorker":                                    "runtime",
		"main.run":                                                  "other",
		"net/http.(*conn).serve":                                    "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
