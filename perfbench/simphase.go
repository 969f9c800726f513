package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/serve"
	"ccnuma/internal/workload"
)

// simRun is one simulation driven through the library's public entry
// points: workload.ByName -> core.NewSystem -> (*System).Run ->
// serve.ResultJSON.
type simRun struct {
	res  *core.Result
	body []byte
	run  time.Duration // (*System).Run alone
	cpu  time.Duration // the running thread's CPU time during Run
	// liveHeap is the live heap after the run, when simulate was asked to
	// measure it (a forced GC, outside the timed calls).
	liveHeap uint64
}

// newSystem builds req's workload and machine. The options come from
// serve.Request.Build, the path numasim and numasimd share, so a direct run
// renders the same bytes the server would send.
func newSystem(tr *tracer, parent int, req serve.Request) (*core.System, error) {
	job, err := req.Build()
	if err != nil {
		return nil, err
	}
	sp := tr.begin("workload.build", parent, 0)
	build, err := workload.ByName(req.Workload)
	if err != nil {
		return nil, err
	}
	spec := build(req.Scale, job.Opt.Seed)
	tr.end(sp)
	sp = tr.begin("core.NewSystem", parent, 0)
	sys, err := core.NewSystem(spec, job.Opt)
	tr.end(sp)
	return sys, err
}

// simulate runs req once; with measureHeap it also records the live heap
// while the machine is still reachable.
func simulate(tr *tracer, parent int, req serve.Request, measureHeap bool) (simRun, error) {
	var out simRun
	sys, err := newSystem(tr, parent, req)
	if err != nil {
		return out, err
	}
	runtime.LockOSThread()
	c1 := threadCPU()
	t1 := time.Now()
	sp := tr.begin("core.Run", parent, 0)
	out.res, err = sys.Run()
	tr.end(sp)
	out.run = time.Since(t1)
	out.cpu = threadCPU() - c1
	runtime.UnlockOSThread()
	if err != nil {
		return out, err
	}
	sp = tr.begin("serve.ResultJSON", parent, 0)
	out.body, err = serve.ResultJSON(out.res)
	tr.end(sp)
	if measureHeap {
		out.liveHeap = liveHeap()
		runtime.KeepAlive(sys)
	}
	return out, err
}

// simPhase is what the simulation phase measured.
type simPhase struct {
	// refsPerS is per round (one simulation of each template): the round's
	// Result.Steps over its Run wall seconds. tracedRefsPerS are the rounds
	// of the traced half (trace mode only).
	refsPerS, tracedRefsPerS []float64
	refsPerCPUS              []float64
	// counts are read from the first result of each template and seed, so
	// they depend on the inputs alone, never on how many simulations fit in
	// the budget.
	counts map[string]simCounts
	seeded []serve.Request // every (template, seed) pair the phase cycles
	// peakHeap is the largest live heap measured at the end of the first
	// run of each pair, with its machine and result still reachable.
	peakHeap uint64
}

// simCounts are one result's simulated counts.
type simCounts struct {
	steps, events, pagerOps, vmFaults, remoteHandlers uint64
	pagerNS                                           int64
	remoteFrac                                        float64
}

func countsOf(res *core.Result) simCounts {
	a := res.Actions
	return simCounts{
		steps:          res.Steps,
		events:         res.Events,
		pagerOps:       a.Migrations + a.Replicas + a.Collapses + a.Remaps,
		vmFaults:       res.VM.Faults,
		remoteHandlers: res.Contention.RemoteHandlerInvocations,
		pagerNS:        int64(res.Agg.Pager.Total()),
		remoteFrac:     1 - res.LocalMissFraction,
	}
}

// simRunner runs the simulation phase in slices between the serving
// phase's rounds, so its rounds (one simulation of each template, cycling
// through two seeds per template) are spread over the whole run: a stretch
// of outside interference then lands on a few rounds of each kind, not on
// all of one.
type simRunner struct {
	w     benchWorkload
	chk   *checker
	ph    simPhase
	i     int      // the next simulation, counted across slices
	profs []string // CPU profiles the traced slices wrote
}

func newSimRunner(w benchWorkload, sd *seeds, chk *checker) *simRunner {
	r := &simRunner{w: w, chk: chk, ph: simPhase{counts: map[string]simCounts{}}}
	const seedsPerTemplate = 2
	for k := 0; k < seedsPerTemplate; k++ {
		for _, t := range w.sims {
			r.ph.seeded = append(r.ph.seeded, withSeed(t, sd.next()))
		}
	}
	return r
}

// runFor runs whole rounds until d has elapsed and every template and seed
// has run. With a tracer, the slice runs traced and under the CPU
// profiler, writing profPath; traced and untraced rounds give the tracing
// overhead.
func (r *simRunner) runFor(d time.Duration, tr *tracer, profPath string) error {
	ph, w, seeded := &r.ph, r.w, r.ph.seeded
	if tr != nil {
		f, err := os.Create(profPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
		r.profs = append(r.profs, profPath)
	}
	start := time.Now()
	var roundSteps uint64
	var roundWall, roundCPU time.Duration
	for ; r.i%len(w.sims) != 0 || r.i < len(seeded) || time.Since(start) < d; r.i++ {
		i := r.i
		if i%len(w.sims) == 0 {
			// Start each round on a collected heap, so a round's Run does not
			// pay for the previous round's garbage.
			runtime.GC()
		}
		req := seeded[i%len(seeded)]
		sp := tr.begin("sim", 0, 0)
		run, err := simulate(tr, sp, req, i < len(seeded))
		if err != nil {
			tr.end(sp)
			r.chk.op(fmt.Sprintf("%s: %v", goldenKey(req), err))
			continue
		}
		csp := tr.begin("check", sp, 0)
		r.chk.op(r.chk.result(req, run.res, run.body))
		tr.end(csp)
		tr.end(sp)
		roundSteps += run.res.Steps
		roundWall += run.run
		roundCPU += run.cpu
		if (i+1)%len(w.sims) == 0 {
			rate := float64(roundSteps) / roundWall.Seconds()
			if tr != nil {
				ph.tracedRefsPerS = append(ph.tracedRefsPerS, rate)
			} else {
				ph.refsPerS = append(ph.refsPerS, rate)
				ph.refsPerCPUS = append(ph.refsPerCPUS, float64(roundSteps)/roundCPU.Seconds())
			}
			roundSteps, roundWall, roundCPU = 0, 0, 0
		}
		ph.peakHeap = max(ph.peakHeap, run.liveHeap)
		if _, ok := ph.counts[runKey(req)]; !ok {
			ph.counts[runKey(req)] = countsOf(run.res)
		}
	}
	// Leave the serving phase a collected heap too.
	runtime.GC()
	return nil
}

// threadCPU returns the calling OS thread's CPU time (Linux RUSAGE_THREAD).
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
