// Command numasim runs one of the paper's workloads on the simulated
// CC-NUMA machine under a chosen placement policy and prints the
// execution-time breakdown.
//
// Usage:
//
//	numasim -workload engineering -policy migrep -duration 400ms
//	numasim -workload raytrace -policy ft -config ccnow -v
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/fault"
	"ccnuma/internal/policy"
	"ccnuma/internal/profiling"
	"ccnuma/internal/serve"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
)

func main() {
	var (
		wl        = flag.String("workload", "engineering", "workload: engineering|raytrace|splash|database|pmake")
		pol       = flag.String("policy", "migrep", "policy: rr|ft|migr|repl|migrep")
		cfgName   = flag.String("config", "ccnuma", "machine: ccnuma|ccnow|zeronet")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		seed      = flag.Uint64("seed", 42, "random seed")
		dur       = flag.Duration("duration", 0, "run length in simulated time (0 = workload default)")
		trigger   = flag.Uint("trigger", 0, "trigger threshold override (0 = workload default)")
		metric    = flag.String("metric", "fc", "counter metric: fc|sc|ft|st")
		track     = flag.Bool("track-tlb", false, "flush only TLBs holding a mapping (ablation)")
		dircopy   = flag.Bool("dir-copy", false, "use the directory's pipelined page copy (ablation)")
		verbose   = flag.Bool("v", false, "print per-CPU and contention detail")
		missPth   = flag.String("misstrace", "", "write the miss trace to this file")
		eventsPth = flag.String("events", "", "write the observability event trace as Chrome trace JSON (load in Perfetto)")
		jsonlPth  = flag.String("events-jsonl", "", "write the observability event trace as JSONL")
		seriesPth = flag.String("timeseries", "", "write the sampled time-series as CSV")
		interval  = flag.Duration("sample-interval", time.Millisecond, "time-series sampling interval (simulated time)")
		debug     = flag.Bool("debug-checks", false, "validate accounting invariants on every sample")
		adaptive  = flag.Bool("adaptive", false, "adaptive trigger threshold (extension)")
		reclaim   = flag.Bool("reclaim", false, "reclaim cold replicas each interval (extension)")
		wshared   = flag.Bool("mig-wshared", false, "migrate write-shared pages (extension)")
		noremap   = flag.Bool("no-remap", false, "disable the pte remap action (paper behaviour)")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of text")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile after the run to this file")

		faultSeed    = flag.Uint64("fault-seed", 0, "fault injector RNG seed (0 = derive from -seed)")
		drainNode    = flag.Int("fault-drain-node", -1, "drain this node's memory mid-run (-1 = off)")
		drainAt      = flag.Duration("fault-drain-at", 10*time.Millisecond, "simulated time of the drain")
		dropBatch    = flag.Float64("fault-drop-batch", 0, "probability a hot-page interrupt batch is lost")
		delayBatch   = flag.Float64("fault-delay-batch", 0, "probability a hot-page interrupt batch is delayed")
		delayBy      = flag.Duration("fault-delay", 200*time.Microsecond, "delay applied to delayed batches (simulated time)")
		allocProb    = flag.Float64("fault-alloc-prob", 0, "probability an allocation attempt fails transiently")
		allocFrom    = flag.Duration("fault-alloc-from", 0, "start of the transient-failure window (simulated time)")
		allocUntil   = flag.Duration("fault-alloc-until", 0, "end of the transient-failure window (0 = end of run)")
		slowNode     = flag.Int("fault-slow-node", -1, "inflate remote-miss latency to/from this node (-1 = off)")
		slowFactor   = flag.Float64("fault-slow-factor", 4, "latency multiplier for the degraded link")
		deferOps     = flag.Bool("fault-defer", false, "defer+retry pager operations that fail allocation")
		overheadBudg = flag.Float64("overhead-budget", 0, "shed pager batches above this fraction of CPU time (0 = off)")
	)
	flag.Parse()
	if *trigger > math.MaxUint16 {
		// The policy counters are 16-bit; a wider value must not wrap into a
		// different threshold (POST /run rejects it the same way).
		fatal(fmt.Errorf("-trigger %d out of range (maximum %d)", *trigger, math.MaxUint16))
	}

	// Drain and slow-link faults key off their node flags; the Config fields
	// stay zero otherwise so the default fingerprint (and output) is identical
	// to a build without the fault layer.
	fc := fault.Config{
		Seed:           *faultSeed,
		DropBatch:      *dropBatch,
		DelayBatch:     *delayBatch,
		AllocFail:      *allocProb,
		DeferFailedOps: *deferOps,
		OverheadBudget: *overheadBudg,
	}
	if *delayBatch > 0 {
		fc.DelayBy = sim.Time(delayBy.Nanoseconds())
	}
	if *allocProb > 0 {
		fc.AllocFailFrom = sim.Time(allocFrom.Nanoseconds())
		fc.AllocFailUntil = sim.Time(allocUntil.Nanoseconds())
	}
	if *drainNode >= 0 {
		fc.DrainNode = *drainNode
		fc.DrainAt = sim.Time(drainAt.Nanoseconds())
	}
	if *slowNode >= 0 {
		fc.SlowNode = *slowNode
		fc.SlowFactor = *slowFactor
	}

	// Flags assemble into the same serve.Request numasimd accepts over HTTP,
	// and both render results through serve.WriteResultJSON — so a served
	// response is byte-identical to this binary's -json output by
	// construction (`make serve-smoke` diffs the two).
	req := serve.Request{
		Workload:       *wl,
		Policy:         *pol,
		Config:         *cfgName,
		Scale:          *scale,
		Seed:           seed,
		DurationNS:     dur.Nanoseconds(),
		Trigger:        uint16(*trigger),
		Metric:         *metric,
		TrackTLB:       *track,
		DirCopy:        *dircopy,
		Adaptive:       *adaptive,
		Reclaim:        *reclaim,
		MigWriteShared: *wshared,
		NoRemap:        *noremap,
		Faults:         &fc,
	}
	job, err := req.Build()
	if err != nil {
		fatal(err)
	}
	spec := job.Spec()

	// CLI-only collection knobs ride on top of the shared option set; none of
	// them is part of the request wire shape (a server never writes local
	// trace files).
	opt := job.Opt
	opt.CollectTrace = *missPth != ""
	opt.CollectEvents = *eventsPth != "" || *jsonlPth != ""
	opt.DebugChecks = *debug
	if *seriesPth != "" {
		if *interval <= 0 {
			fatal(fmt.Errorf("-sample-interval must be positive"))
		}
		opt.SampleInterval = sim.Time(interval.Nanoseconds())
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := core.Run(spec, opt)
	stopProf()
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	if *jsonOut {
		printJSON(res)
		return
	}
	printResult(res, *verbose)
	if opt.Faults.Enabled() {
		printFaults(res)
	}
	fmt.Printf("\n(simulated %v in %v wall, %d events, %d steps)\n", res.Elapsed, wall.Round(time.Millisecond), res.Events, res.Steps)

	if *missPth != "" && res.Trace != nil {
		writeFile(*missPth, res.Trace.Write)
		fmt.Printf("miss trace: %d records -> %s\n", res.Trace.Len(), *missPth)
	}
	if *eventsPth != "" && res.ObsEvents != nil {
		writeFile(*eventsPth, res.ObsEvents.WriteChromeTrace)
		fmt.Printf("events: %d -> %s (chrome trace; load in Perfetto)\n", res.ObsEvents.Len(), *eventsPth)
	}
	if *jsonlPth != "" && res.ObsEvents != nil {
		writeFile(*jsonlPth, res.ObsEvents.WriteJSONL)
		fmt.Printf("events: %d -> %s (jsonl)\n", res.ObsEvents.Len(), *jsonlPth)
	}
	if *seriesPth != "" && res.Series != nil {
		writeFile(*seriesPth, res.Series.WriteCSV)
		fmt.Printf("timeseries: %d samples -> %s\n", res.Series.Len(), *seriesPth)
	}
}

// writeFile creates path and streams write into it, failing hard on error.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func printResult(r *core.Result, verbose bool) {
	b := &r.Agg
	tot := b.Total()
	l2, local, remote := b.MemStall()
	fmt.Printf("workload %s  policy %s  machine time %v (8-CPU aggregate %v)\n",
		r.Workload, r.Policy, r.Elapsed, tot)
	fmt.Printf("  non-idle %v (%.1f%%)  idle %v (%.1f%%)\n",
		b.NonIdle(), pct(b.NonIdle(), tot), b.Idle, pct(b.Idle, tot))
	ni := b.NonIdle()
	fmt.Printf("  compute: user %v (%.1f%% ni)  kernel %v (%.1f%% ni)\n",
		b.Compute[stats.User], pct(b.Compute[stats.User], ni),
		b.Compute[stats.Kernel], pct(b.Compute[stats.Kernel], ni))
	fmt.Printf("  stall:   L2 %v (%.1f%%)  local %v (%.1f%%)  remote %v (%.1f%%)\n",
		l2, pct(l2, ni), local, pct(local, ni), remote, pct(remote, ni))
	fmt.Printf("  stall by mode/side (%% ni): Kinstr %.1f Kdata %.1f Uinstr %.1f Udata %.1f\n",
		pct(b.StallTime(stats.Kernel, stats.Instr), ni),
		pct(b.StallTime(stats.Kernel, stats.Data), ni),
		pct(b.StallTime(stats.User, stats.Instr), ni),
		pct(b.StallTime(stats.User, stats.Data), ni))
	fmt.Printf("  kernel handlers: tlb-refill %v  fault %v  pager %v (%.1f%% ni)\n",
		b.TLBRefill, b.FaultTime, b.Pager.Total(), pct(b.Pager.Total(), ni))
	fmt.Printf("  local miss fraction %.1f%%  avg remote latency %v\n",
		100*r.LocalMissFraction, r.AvgRemoteLatency)
	fmt.Printf("  sched migrations %d  vm: faults %d mig %d repl %d collapse %d remap %d\n",
		r.SchedMigrations, r.VM.Faults, r.VM.Migrates, r.VM.Replics, r.VM.Collapses, r.VM.Remaps)
	if r.Actions.HotPages > 0 {
		mig, rep, none, nopage := r.Actions.Percent()
		fmt.Printf("  hot pages %d: migrate %.0f%% replicate %.0f%% no-action %.0f%% no-page %.0f%%\n",
			r.Actions.HotPages, mig, rep, none, nopage)
	}
	fmt.Printf("  alloc: peak base %d peak replica %d (overhead %.0f%%) failures %d\n",
		r.Alloc.PeakBase, r.Alloc.PeakReplica, 100*r.Alloc.ReplicaOverhead(), r.Alloc.Failures)

	if verbose {
		fmt.Printf("  contention: remote handlers %d  avg net queue %.2f  max dir occ %.2f  avg local read %v\n",
			r.Contention.RemoteHandlerInvocations, r.Contention.AvgNetQueue,
			r.Contention.MaxDirOccupancy, r.Contention.AvgLocalReadLatency)
		fmt.Printf("  memlock: %d acq, %d contended, wait %v; page locks: %d acq, wait %v\n",
			r.Memlock.Acquisitions, r.Memlock.Contended, r.Memlock.WaitTime,
			r.PageLocks.Acquisitions, r.PageLocks.WaitTime)
		if r.Actions.HotPages > 0 {
			fmt.Printf("  no-action reasons: local %d write-shared %d frozen %d wired %d disabled %d nopage %d\n",
				r.Actions.ByReason[policy.ReasonLocal], r.Actions.ByReason[policy.ReasonWriteShared],
				r.Actions.ByReason[policy.ReasonFrozen], r.Actions.ByReason[policy.ReasonWired],
				r.Actions.ByReason[policy.ReasonDisabled], r.Actions.ByReason[policy.ReasonNoPage])
			fmt.Println("  pager overhead by function:")
			for f := 0; f < stats.NumPagerFuncs; f++ {
				fn := stats.PagerFunc(f)
				fmt.Printf("    %-16s %6.1f%%  (%v)\n", fn, b.Pager.Percent(fn), b.Pager.Time[fn])
			}
			for _, k := range []stats.OpKind{stats.OpReplicate, stats.OpMigrate} {
				ol := b.Pager.OpLatency[k]
				fmt.Printf("  %s ops %d  mean latency %.1fus\n", k, ol.Count, ol.MeanTotal())
			}
		}
		for i := range r.PerCPU {
			fmt.Printf("  cpu%d: %s\n", i, r.PerCPU[i].Summary())
		}
	}
}

// printFaults summarises what the injector did and how the kernel degraded.
// Printed only when faults are enabled, keeping the default output identical.
func printFaults(r *core.Result) {
	f := r.Faults
	fmt.Printf("  faults: alloc-fail %d  batches dropped %d delayed %d  slowed misses %d",
		f.AllocFailures, f.BatchesDropped, f.BatchesDelayed, f.SlowedMisses)
	if f.DrainedNode >= 0 {
		fmt.Printf("  drained node %d (%d replicas evicted)", f.DrainedNode, f.ReplicasEvicted)
	}
	fmt.Println()
	fmt.Printf("  degradation: ops deferred %d retried %d abandoned %d  batches throttled %d  alloc transient %d  vm retries %d\n",
		r.Agg.Deferred, r.Agg.Retried, r.Agg.Abandoned, r.Agg.Throttled,
		r.Alloc.TransientFailures, r.VM.AllocRetries)
}

// printJSON emits the machine-readable summary through the serving layer's
// renderer — the single source of the -json byte format (numasimd responses
// are byte-identical by construction).
func printJSON(r *core.Result) {
	if err := serve.WriteResultJSON(os.Stdout, r); err != nil {
		fatal(err)
	}
}

func pct(a, b sim.Time) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "numasim:", err)
	os.Exit(1)
}
