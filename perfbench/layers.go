package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"ccnuma/internal/serve"
)

// layerMetric is one per-layer metric: the span whose count and self time
// back it, and the end-to-end metric (on the named workload) it should move.
type layerMetric struct {
	name, unit, span, moves string
}

var layerTable = []layerMetric{
	{"workload.next_ns", "ns", "replay.workload", "refs_per_s, mostly on engr-migrep"},
	{"workload.refs", "count", "core.Run", "refs_per_s (work per simulation; host-independent)"},
	{"tlb.lookup_ns", "ns", "replay.tlb", "refs_per_s on engr-migrep"},
	{"tlb.miss_ratio", "fraction", "replay.tlb", "refs_per_s on engr-migrep"},
	{"cache.access_ns", "ns", "replay.cache", "refs_per_s on engr-migrep and db-migrep"},
	{"cache.l1_hit_ratio", "fraction", "replay.cache", "refs_per_s on engr-migrep and db-migrep"},
	{"cache.l2_hit_ratio", "fraction", "replay.cache", "refs_per_s on engr-migrep and db-migrep"},
	{"directory.memsys_access_ns", "ns", "replay.memsys", "refs_per_s on db-migrep far more than engr-migrep"},
	{"directory.record_ns", "ns", "replay.counters", "refs_per_s on db-migrep far more than engr-migrep"},
	{"directory.remote_frac", "fraction", "core.Run", "refs_per_s on db-migrep far more than engr-migrep"},
	{"directory.remote_handlers", "count", "core.Run", "refs_per_s on db-migrep far more than engr-migrep"},
	{"sim.event_ns", "ns", "replay.sim", "refs_per_s on db-migrep"},
	{"sim.events_per_kref", "count", "core.Run", "refs_per_s on db-migrep"},
	{"pager.ops", "count", "core.Run", "none: identical under host-only changes"},
	{"pager.overhead_sim_ns", "ns", "core.Run", "none: simulated time, identical under host-only changes"},
	{"vm.faults", "count", "core.Run", "none: identical under host-only changes"},
	{"serve.build_us", "us", "replay.build", "lat_p50_ms.* (hit path)"},
	{"serve.render_us", "us", "replay.render", "lat_p50_ms.* (hit path)"},
	{"serve.sim_ms", "ms", "verify.novel", "lat_p99_ms.* and max_rate_rps (miss path)"},
	{"serve.hit_ratio", "fraction", "http.request", "lat_p50_ms.*"},
	{"serve.evictions", "count", "http.request", "lat_p99_ms.*"},
	{"serve.gen_late_ms", "ms", "http.request", "lat_p99_ms.* (load generator health)"},
}

// buildReplayMax bounds the Request.Build replay: Build constructs a
// workload spec, so a whole phase's requests would take seconds.
const buildReplayMax = 400

// renderReps is how many times each miss-path result is rendered.
const renderReps = 50

// layerMetrics runs the replays, folds the profile, writes the spans, and
// adds every per-layer metric to rep.
func layerMetrics(rep *report, w benchWorkload, sp simPhase, sv *servePhase, missRuns []simRun, hits, misses, evictions uint64, tr *tracer, profPaths []string, spanPath string) error {
	var tot replayTotals
	for _, t := range w.sims {
		if err := replayWorkload(tr, withSeed(t, *sp.seeded[0].Seed), replayRefs/len(w.sims), &tot); err != nil {
			return fmt.Errorf("replay %s: %w", goldenKey(t), err)
		}
	}

	// Request.Build over a uniform sample of the phase's requests.
	var build layerTotals
	step := max(1, len(sv.built)/buildReplayMax)
	for i := 0; i < len(sv.built); i += step {
		id := tr.begin("replay.build", 0, 0)
		t0 := time.Now()
		_, err := sv.built[i].req.Build()
		build.wall += time.Since(t0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay build: %w", err)
		}
		build.calls++
	}
	var render layerTotals
	for _, r := range missRuns {
		id := tr.begin("replay.render", 0, 0)
		t0 := time.Now()
		for k := 0; k < renderReps; k++ {
			if _, err := serve.ResultJSON(r.res); err != nil {
				return fmt.Errorf("replay render: %w", err)
			}
		}
		render.wall += time.Since(t0)
		render.calls += renderReps
		tr.end(id)
	}
	var simMS []float64
	for _, r := range missRuns {
		simMS = append(simMS, float64(r.run)/1e6)
	}

	// Simulated counts: the mean over the phase's template and seed pairs.
	var c simCounts
	for _, v := range sp.counts {
		c.steps += v.steps
		c.events += v.events
		c.pagerOps += v.pagerOps
		c.vmFaults += v.vmFaults
		c.remoteHandlers += v.remoteHandlers
		c.pagerNS += v.pagerNS
		c.remoteFrac += v.remoteFrac
	}
	n := float64(len(sp.counts))

	shares, err := foldProfile(profPaths...)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(spanPath); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	layers := selfTimes(tr.snapshot())

	vals := map[string]float64{
		"workload.next_ns":           tot.gen.ns(),
		"workload.refs":              float64(c.steps) / n,
		"tlb.lookup_ns":              tot.tlb.ns(),
		"tlb.miss_ratio":             frac(tot.tlbMisses, tot.tlb.calls),
		"cache.access_ns":            tot.cache.ns(),
		"cache.l1_hit_ratio":         frac(tot.l1Hits, tot.cache.calls),
		"cache.l2_hit_ratio":         frac(tot.l2Hits, tot.cache.calls-tot.l1Hits),
		"directory.memsys_access_ns": tot.memsys.ns(),
		"directory.record_ns":        tot.counters.ns(),
		"directory.remote_frac":      c.remoteFrac / n,
		"directory.remote_handlers":  float64(c.remoteHandlers) / n,
		"sim.event_ns":               tot.engine.ns(),
		"sim.events_per_kref":        float64(c.events) / (float64(c.steps) / 1000),
		"pager.ops":                  float64(c.pagerOps) / n,
		"pager.overhead_sim_ns":      float64(c.pagerNS) / n,
		"vm.faults":                  float64(c.vmFaults) / n,
		"serve.build_us":             build.ns() / 1e3,
		"serve.render_us":            render.ns() / 1e3,
		"serve.sim_ms":               median(simMS),
		"serve.hit_ratio":            frac(int(hits), int(hits+misses)),
		"serve.evictions":            float64(evictions),
		"serve.gen_late_ms":          ms(sv.high.lateP99),
	}
	fmt.Println("per-layer metrics (value, unit; backing span: count, self time; what it should move):")
	for _, m := range layerTable {
		lt := layers[m.span]
		rep.add(m.name, vals[m.name], m.unit, fmt.Sprintf("[%s: n=%d self=%v] moves %s",
			m.span, lt.Count, lt.Self.Round(time.Microsecond), m.moves))
	}
	for _, mod := range hostModules {
		rep.add("host."+mod+".share", shares[mod], "fraction",
			fmt.Sprintf("self time in %s, CPU profile of the traced simulations", mod))
	}
	overhead := 100 * (median(sp.refsPerS)/median(sp.tracedRefsPerS) - 1)
	rep.add("trace.overhead_pct", overhead, "%", fmt.Sprintf("untraced vs traced refs/s, %d vs %d rounds",
		len(sp.refsPerS), len(sp.tracedRefsPerS)))

	fmt.Printf("spans by name (written to %s):\n", filepath.ToSlash(spanPath))
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		lt := layers[k]
		fmt.Printf("  %-20s n=%-7d total=%-14v self=%v\n", k, lt.Count, lt.Total.Round(time.Microsecond), lt.Self.Round(time.Microsecond))
	}
	return nil
}
