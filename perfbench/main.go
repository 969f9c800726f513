// Command perfbench is the repository's end-to-end benchmark: it drives the
// simulator and the what-if server through their public entry points, checks
// every output, and prints each metric with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every call into a layer, profiles its simulations,
// replays each layer on the workload's own reference stream, and reports the
// per-layer metrics instead. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --p99-limit-ms 100 --workload engr-migrep --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// outDir holds the traced run's spans and profiles, inside the checkout.
const outDir = ".bench_build/perfbench"

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 7

// simShare is the part of --seconds the simulation phase gets; the serving
// phase gets the rest.
const simShare = 0.25

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as it is added.
type report struct{ m map[string]metric }

func (r *report) add(name string, v float64, unit, note string) {
	r.m[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-28s %14.6g %-8s %s\n", name, v, unit, note)
}

func main() {
	var (
		name    = flag.String("workload", "", "engr-migrep | db-migrep")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 45, "measured seconds per run")
		traceOn = flag.Int("trace", 0, "1: traced run with per-layer metrics")
		limitMS = flag.Float64("p99-limit-ms", 100, "p99 latency limit a ladder rung must meet")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1,
		time.Duration(*limitMS*float64(time.Millisecond))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w benchWorkload, seed uint64, budget time.Duration, traced bool, limit time.Duration) error {
	sd := newSeeds(seed)
	chk := newChecker()
	var tr *tracer
	if traced {
		tr = newTracer()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Printf("perfbench %s seed=%d seconds=%v trace=%v p99-limit=%v\n", w.name, seed, budget.Seconds(), traced, limit)

	// Set-up, repeated: build the workload and machine of the first
	// simulation, then start a server and warm its cache. The last server is
	// the one the serving phase measures. The measured part then runs the
	// serving phase's rounds with a slice of the simulation phase before
	// each, and the ladder search after them.
	var setups []float64
	var srv *liveServer
	var hotBodies [][]byte
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		id := tr.begin("setup", 0, 0)
		if _, err := newSystem(tr, id, withSeed(w.sims[0], sd.next())); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s, err := startServer()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		bodies, err := warm(s, w, chk)
		tr.end(id)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			s.stop()
			return fmt.Errorf("set-up: %w", err)
		}
		if i < setupReps-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("set-up: stop server: %w", err)
			}
			continue
		}
		srv, hotBodies = s, bodies
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	sims := newSimRunner(w, sd, chk)
	simBudget := time.Duration(simShare * float64(budget))
	sv, err := runServePhase(srv, w, sd, hotBodies, budget-simBudget, limit, chk, tr, func(round, rounds int) error {
		// With tracing, the second half of the slices run traced.
		if tr != nil && round >= rounds/2 {
			return sims.runFor(simBudget/time.Duration(rounds), tr, fmt.Sprintf("%s.%d.pprof", base, round))
		}
		return sims.runFor(simBudget/time.Duration(rounds), nil, "")
	})
	if err != nil {
		srv.stop()
		return err
	}
	sim := sims.ph
	hits, misses, evictions, err := srv.healthz()
	if err != nil {
		srv.stop()
		return fmt.Errorf("healthz: %w", err)
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stop server: %w", err)
	}

	// Checks outside the measured window: each sampled novel response
	// against a direct run, every simulation seed seen once re-run, and each
	// simulation template at the default seed against its golden hash.
	missRuns := verifyNovel(&sv, chk, tr)
	rerun := chk.once(sim.seeded)
	for _, t := range w.sims {
		rerun = append(rerun, withSeed(t, defaultSeed))
	}
	for _, req := range rerun {
		r, err := simulate(nil, 0, req, false)
		if err != nil {
			chk.op(fmt.Sprintf("%s: %v", goldenKey(req), err))
			continue
		}
		chk.op(chk.result(req, r.res, r.body))
	}

	rep := &report{m: map[string]metric{}}
	if !traced {
		fmt.Println("end-to-end metrics (host time unless marked):")
		rep.add("refs_per_s", median(sim.refsPerS), "1/s", fmt.Sprintf("median of %d rounds of %d simulation(s), range %.4g..%.4g; over thread CPU time %.4g",
			len(sim.refsPerS), len(w.sims), slices.Min(sim.refsPerS), slices.Max(sim.refsPerS), median(sim.refsPerCPUS)))
		rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		rep.add("heap_mb", float64(sim.peakHeap)/(1<<20), "MB", fmt.Sprintf("peak live heap at the end of a simulation, over %d", len(sim.seeded)))
		for _, ph := range []struct {
			tag string
			st  phaseStats
		}{{"low", sv.low}, {"high", sv.high}} {
			note := fmt.Sprintf("%.0f rps offered, n=%d", ph.st.rate, ph.st.n)
			rep.add("lat_p50_ms."+ph.tag, ms(ph.st.p50), "ms", note)
			rep.add("lat_p99_ms."+ph.tag, ms(ph.st.p99), "ms", note)
		}
		rep.add("max_rate_rps", sv.maxRate, "1/s", fmt.Sprintf("ladder rungs run: %s", rungList(sv.probes, limit)))
	} else {
		if err := layerMetrics(rep, w, sim, &sv, missRuns, hits, misses, evictions, tr, sims.profs, base+".spans.jsonl"); err != nil {
			return err
		}
	}
	fmt.Printf("  %-28s %14.6g %-8s %d of %d operations\n", "fail_frac", frac(chk.failed, chk.attempted), "fraction", chk.failed, chk.attempted)
	for _, p := range chk.problems {
		fmt.Println("  check failed:", p)
	}
	out, err := json.Marshal(result{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   rep.m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func ms(d time.Duration) float64 {
	if d == never {
		return 1e9 // a failure landed on the percentile
	}
	return float64(d) / 1e6
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func rungList(probes []phaseStats, limit time.Duration) string {
	sorted := append([]phaseStats(nil), probes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].rate < sorted[j].rate })
	s := ""
	for _, p := range sorted {
		verdict := "pass"
		if !p.meets(limit) {
			verdict = "fail"
		}
		s += fmt.Sprintf("%.0f:%s(p99=%.1fms,n=%d,late=%.0fms@%s) ", p.rate, verdict, ms(p.p99), p.n, ms(p.finalLate), streamName[p.lateBy])
	}
	return s
}

// liveHeap forces a collection and returns the live heap in bytes. The
// caller keeps what it wants counted reachable across the call.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
