package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"ccnuma/internal/serve"
)

// senders is the load generator's goroutine and connection count: the
// machine's two CPUs, shared with the server under test. Sender hotSender
// sends the hot (cache-hit) requests and sender novelSender the novel
// ones, so a hit never waits on the client side behind a simulation: the
// hit path's latency is the server's alone, and a miss path that cannot
// keep up shows as its own stream's growing lateness.
const (
	senders     = 2
	hotSender   = 0
	novelSender = 1
)

var streamName = [senders]string{hotSender: "hot", novelSender: "novel"}

// Rate ladder: rung k offers 100*1.05^k requests per second, 100 to ~3040.
// Adjacent rungs differ by 5%, so a knee that wobbles between two of them
// moves max_rate_rps by no more than that. The low and high fixed rates are
// rungs, and the max-rate search starts from the highest of them that
// meets the limit. The novel stream stops keeping up at about 1600 rps (a
// 30 ms what-if every 50 requests); a knee up to about 1.9 times that still
// lies below the top rung. The high rate keeps the novel stream about half
// busy, so the tail shows queueing behind the simulations without a slow
// stretch of the host tipping it over.
const (
	ladderBase  = 100.0
	ladderRatio = 1.05
	ladderRungs = 71
	lowRung     = 33 // ~500 rps
	highRung    = 41 // ~739 rps
)

func rungRate(k int) float64 { return ladderBase * math.Pow(ladderRatio, float64(k)) }

// liveServer is an in-process numasimd on a loopback port.
type liveServer struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	served  chan error
	clients []*http.Client
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:    serve.New(serve.Config{}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < senders; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return s, nil
}

// stop drains the server and waits for its accept loop to end.
func (s *liveServer) stop() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Shutdown()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one /run request on the worker's connection.
func (s *liveServer) post(worker int, body []byte) (int, []byte, error) {
	resp, err := s.clients[worker].Post(s.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// healthz reads the server's cache counters.
func (s *liveServer) healthz() (hits, misses, evictions uint64, err error) {
	resp, err := s.clients[0].Get(s.url + "/healthz")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Cache struct {
			Hits, Misses, Evictions uint64
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, 0, err
	}
	return h.Cache.Hits, h.Cache.Misses, h.Cache.Evictions, nil
}

// warm sends every hot what-if once, checking each body against its golden
// hash, and returns the bodies the later hits must reproduce.
func warm(s *liveServer, w benchWorkload, chk *checker) ([][]byte, error) {
	var out [][]byte
	for _, r := range w.hot {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		code, resp, err := s.post(0, body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, resp)
		}
		if err != nil {
			chk.op(fmt.Sprintf("warm %s: %v", goldenKey(r), err))
			return nil, err
		}
		chk.op(chk.rendering(r, resp))
		out = append(out, resp)
	}
	return out, nil
}

// request is one scheduled what-if of a serving block.
type request struct {
	req  serve.Request
	body []byte
	hot  int // index into the hot set; -1 for a novel what-if
}

// mix draws a block's request sequence: every missEvery-th request is a
// novel what-if (the workload's novel template with a fresh seed),
// the rest are drawn from the hot set.
func mix(w benchWorkload, sd *seeds, n int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		var r request
		if i%missEvery == missEvery-1 {
			r.hot = -1
			r.req = withSeed(w.novel, sd.next())
		} else {
			r.hot = sd.r.IntN(len(w.hot))
			r.req = w.hot[r.hot]
		}
		b, err := json.Marshal(r.req)
		if err != nil {
			return nil, err
		}
		r.body = b
		out[i] = r
	}
	return out, nil
}

// servePhase is what the serving phase measured.
type servePhase struct {
	low, high phaseStats
	maxRate   float64
	probes    []phaseStats // ladder rungs run (low and high included)
	// novel are the sampled novel what-ifs with the bytes the server sent,
	// verified after the phase against a direct library run.
	novel     []request
	novelBody [][]byte
	built     []request // every request of the phase (build/render replays)
}

// blockLen is how many requests one block sends: enough for its own p99.
var blockLen = samplesFor(99) + 10

// probeLen is how many requests a ladder probe at rate sends: its share of
// the budget, and never fewer than a block.
func probeLen(rate float64, share time.Duration) int {
	return max(int(rate*share.Seconds()), blockLen)
}

// fixedShare is the part of the serving budget the low- and high-rate
// blocks get; the ladder search gets the rest. minRounds is the fewest
// rounds they run, whatever the budget.
const (
	fixedShare = 0.8
	minRounds  = 3
)

// A novel response is kept for verification every novelSample novel
// requests, up to novelPerBlock per block, so every rate's responses are
// checked (each check costs a direct simulation).
const (
	novelSample   = 4
	novelPerBlock = 2
)

// runBlock offers rate for n requests as one open loop and checks every
// response: hot responses against their warm bodies byte for byte, novel
// ones sampled for verification after the phase.
func runBlock(s *liveServer, w benchWorkload, sd *seeds, hotBodies [][]byte, rate float64, n int, chk *checker, tr *tracer, sp *servePhase) ([]outcome, error) {
	reqs, err := mix(w, sd, n)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, n)
	first := int64(len(sp.built)) + 1 // request ids run on across blocks
	streamOf := func(i int) int {
		if reqs[i].hot < 0 {
			return novelSender
		}
		return hotSender
	}
	outs := openLoop(senders, rate, n, streamOf, func(worker, i int) bool {
		r := reqs[i]
		id := tr.begin("http.request", 0, first+int64(i))
		code, resp, err := s.post(worker, r.body)
		tr.end(id)
		switch {
		case err != nil:
			chk.op(fmt.Sprintf("%s: %v", goldenKey(r.req), err))
			return false
		case code != http.StatusOK:
			chk.op(fmt.Sprintf("%s: status %d", goldenKey(r.req), code))
			return false
		case r.hot >= 0 && !bytes.Equal(resp, hotBodies[r.hot]):
			chk.op(fmt.Sprintf("%s: hit bytes differ from the warm response", goldenKey(r.req)))
			return false
		}
		chk.op("")
		bodies[i] = resp
		return true
	})
	novel, kept := 0, 0
	for i, r := range reqs {
		if r.hot >= 0 || bodies[i] == nil {
			continue
		}
		if novel%novelSample == 0 && kept < novelPerBlock {
			sp.novel = append(sp.novel, r)
			sp.novelBody = append(sp.novelBody, bodies[i])
			kept++
		}
		novel++
	}
	sp.built = append(sp.built, reqs...)
	return outs, nil
}

// The max-rate search runs ladderProbes probes. It bisects the rungs above
// the start for the knee, then spends the probes left tracking it one rung
// at a time: up after a pass, down after a fail. Near the knee a single
// probe passes or fails with the host's speed during it, so no one probe
// decides: each tracking probe votes for the highest passing rung it
// implies (its own after a pass, the one below after a fail), and the
// median vote is the result. A spurious failure during the bisection costs
// a rung or two that the tracking climbs back.
const ladderProbes = 10

// searchLadder returns the highest rung that meets the limit, starting
// from rung start (known to pass; -1 when no rung is known to), or -1 when
// none does. pass probes a rung.
func searchLadder(start int, pass func(k int) (bool, error)) (int, error) {
	lo, hi, n := start, ladderRungs, 0
	for ; hi-lo > 1 && n < ladderProbes; n++ {
		mid := (lo + hi) / 2
		ok, err := pass(mid)
		if err != nil {
			return -1, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	var votes []float64
	for k := lo + 1; n < ladderProbes; n++ {
		k = min(k, ladderRungs-1)
		ok, err := pass(k)
		if err != nil {
			return -1, err
		}
		if ok {
			votes = append(votes, float64(k))
			k++
		} else {
			votes = append(votes, float64(k-1))
			k = max(k-1, 0)
		}
	}
	if len(votes) == 0 {
		return lo, nil
	}
	return int(math.Floor(median(votes))), nil
}

// runServePhase measures latency at the low and high rates, then searches
// the ladder for the highest rung that meets limit. The fixed rates run in
// rounds of one low and one high block, each round after a call of
// between(round, rounds) (the simulation phase's slice), so a stretch of
// outside interference lands on a few blocks of each rate, and each rate
// reports its median block: the program's own tail (GC, slow simulations)
// shows in every block, a burst of host interference in a few.
func runServePhase(s *liveServer, w benchWorkload, sd *seeds, hotBodies [][]byte, budget, limit time.Duration, chk *checker, tr *tracer, between func(round, rounds int) error) (servePhase, error) {
	var sp servePhase
	lowRate, highRate := rungRate(lowRung), rungRate(highRung)
	round := time.Duration(float64(blockLen) * (1/lowRate + 1/highRate) * float64(time.Second))
	rounds := max(minRounds, int(fixedShare*float64(budget)/float64(round)))
	var low, high [][]outcome
	for r := 0; r < rounds; r++ {
		if err := between(r, rounds); err != nil {
			return sp, err
		}
		for _, b := range []struct {
			rate   float64
			blocks *[][]outcome
		}{{lowRate, &low}, {highRate, &high}} {
			outs, err := runBlock(s, w, sd, hotBodies, b.rate, blockLen, chk, tr, &sp)
			if err != nil {
				return sp, err
			}
			*b.blocks = append(*b.blocks, outs)
		}
	}
	sp.low, sp.high = summarizeBlocks(lowRate, low), summarizeBlocks(highRate, high)
	sp.probes = append(sp.probes, sp.low, sp.high)

	start := -1
	if sp.low.meets(limit) {
		start = lowRung
	}
	if sp.high.meets(limit) {
		start = highRung
	}
	probeShare := (budget - time.Duration(rounds)*round) / ladderProbes
	top, err := searchLadder(start, func(k int) (bool, error) {
		rate := rungRate(k)
		outs, err := runBlock(s, w, sd, hotBodies, rate, probeLen(rate, probeShare), chk, tr, &sp)
		if err != nil {
			return false, err
		}
		st := summarize(rate, outs)
		sp.probes = append(sp.probes, st)
		return st.meets(limit), nil
	})
	if err != nil {
		return sp, err
	}
	if top >= 0 {
		sp.maxRate = rungRate(top)
	}
	return sp, nil
}

// verifyNovel re-runs each sampled novel what-if directly through the
// library and requires the server's bytes to match. It returns the direct
// runs: the miss path's simulations.
func verifyNovel(sp *servePhase, chk *checker, tr *tracer) []simRun {
	var runs []simRun
	for i, r := range sp.novel {
		id := tr.begin("verify.novel", 0, 0)
		run, err := simulate(tr, id, r.req, false)
		tr.end(id)
		switch {
		case err != nil:
			chk.op(fmt.Sprintf("%s: %v", goldenKey(r.req), err))
			continue
		case !bytes.Equal(run.body, sp.novelBody[i]):
			chk.op(fmt.Sprintf("%s: served bytes differ from a direct run", goldenKey(r.req)))
		default:
			chk.op(chk.result(r.req, run.res, run.body))
		}
		runs = append(runs, run)
	}
	return runs
}
