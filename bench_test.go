package ccnuma

// The benchmarks regenerate every table and figure of the paper's
// evaluation (see DESIGN.md, section "Per-experiment index"). Each runs the
// corresponding experiment from internal/report against a shared, memoized
// harness, logs the rendered paper-vs-measured table (visible with -v and
// in bench_output.txt), and reports the experiment's headline numbers as
// custom benchmark metrics.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// BENCH_SCALE (default 0.5) trades fidelity for speed.

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"ccnuma/internal/core"
	"ccnuma/internal/report"
	"ccnuma/internal/topology"
	"ccnuma/internal/trace"
	"ccnuma/internal/tracesim"
)

var (
	benchOnce sync.Once
	benchH    *report.Harness
)

func harness() *report.Harness {
	benchOnce.Do(func() {
		scale := 0.5
		if v := os.Getenv("BENCH_SCALE"); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				scale = f
			}
		}
		benchH = report.NewHarness(scale, 42)
	})
	return benchH
}

// runExperiment executes one registered experiment per iteration (memoized
// simulations make repeat iterations cheap) and logs the rendered result.
func runExperiment(b *testing.B, id string) string {
	b.Helper()
	e, err := report.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	h := harness()
	var out string
	for i := 0; i < b.N; i++ {
		out = e.Run(h)
	}
	b.Logf("\n%s — %s\n%s", e.ID, e.Title, out)
	return out
}

func impr(b *testing.B, name string, base, next float64) {
	if base > 0 {
		b.ReportMetric(100*(base-next)/base, name)
	}
}

// BenchmarkTable3Characterization regenerates Table 3: per-workload CPU-time
// split and cache-stall shares under first touch.
func BenchmarkTable3Characterization(b *testing.B) {
	runExperiment(b, "T3")
	h := harness()
	for _, wl := range []string{"engineering", "pmake"} {
		r := h.FT(wl)
		b.ReportMetric(100*float64(r.Agg.Idle)/float64(r.Agg.Total()), wl[:4]+"_idle_%")
	}
}

// BenchmarkFigure3BasePolicy regenerates Figure 3: the base
// migration/replication policy against first touch on the four user-stall
// workloads.
func BenchmarkFigure3BasePolicy(b *testing.B) {
	runExperiment(b, "F3")
	h := harness()
	for _, wl := range []string{"engineering", "raytrace", "splash", "database"} {
		ft, mr := h.FT(wl), h.MigRep(wl)
		impr(b, wl[:4]+"_impr_%", float64(ft.Agg.NonIdle()), float64(mr.Agg.NonIdle()))
	}
}

// BenchmarkTable4Actions regenerates Table 4: the breakdown of actions taken
// on hot pages.
func BenchmarkTable4Actions(b *testing.B) {
	runExperiment(b, "T4")
	h := harness()
	mig, rep, _, _ := h.MigRep("engineering").Actions.Percent()
	b.ReportMetric(mig, "engr_migrate_%")
	b.ReportMetric(rep, "engr_replicate_%")
	_, _, _, nopage := h.MigRep("splash").Actions.Percent()
	b.ReportMetric(nopage, "splash_nopage_%")
}

// BenchmarkContentionReduction regenerates Section 7.1.2: the system-wide
// reduction in remote-handler invocations, queueing, and occupancy, plus the
// zero-network-delay run.
func BenchmarkContentionReduction(b *testing.B) {
	runExperiment(b, "S7.1.2")
	h := harness()
	ft, mr := h.FT("engineering"), h.MigRep("engineering")
	impr(b, "remote_handlers_%", float64(ft.Contention.RemoteHandlerInvocations),
		float64(mr.Contention.RemoteHandlerInvocations))
	impr(b, "local_read_lat_%", float64(ft.Contention.AvgLocalReadLatency),
		float64(mr.Contention.AvgLocalReadLatency))
}

// BenchmarkFigure5CCNOW regenerates Figure 5: CC-NUMA vs CC-NOW for the
// engineering workload.
func BenchmarkFigure5CCNOW(b *testing.B) {
	runExperiment(b, "F5")
	h := harness()
	ft := h.Run("engineering", core.Options{Config: topology.CCNOW()})
	mr := h.Run("engineering", core.Options{Config: topology.CCNOW(), Dynamic: true})
	impr(b, "ccnow_impr_%", float64(ft.Agg.NonIdle()), float64(mr.Agg.NonIdle()))
	b.ReportMetric(float64(ft.AvgRemoteLatency), "ccnow_obs_remote_ns")
}

// BenchmarkTable5StepLatency regenerates Table 5: mean per-step latencies of
// replication and migration operations (paper-equivalent microseconds).
func BenchmarkTable5StepLatency(b *testing.B) {
	runExperiment(b, "T5")
	h := harness()
	scale := 1.0 / topology.CCNUMA().CostScale
	pb := h.MigRep("engineering").Agg.Pager
	b.ReportMetric(pb.OpLatency[0].MeanTotal()*scale, "engr_repl_us")
	b.ReportMetric(pb.OpLatency[1].MeanTotal()*scale, "engr_migr_us")
}

// BenchmarkTable6KernelOverhead regenerates Table 6: kernel overhead by
// function, plus the TLB-holder-tracking and directory-copy ablations.
func BenchmarkTable6KernelOverhead(b *testing.B) {
	runExperiment(b, "T6")
	h := harness()
	pb := h.MigRep("engineering").Agg.Pager
	b.ReportMetric(pb.Percent(4), "engr_tlbflush_%") // stats.FnTLBFlush
	b.ReportMetric(pb.Percent(2), "engr_alloc_%")    // stats.FnPageAlloc
}

// BenchmarkInfoSpaceOverhead regenerates Section 7.2.1's counter space
// overhead analysis.
func BenchmarkInfoSpaceOverhead(b *testing.B) {
	runExperiment(b, "S7.2.1")
}

// BenchmarkReplicationSpace regenerates Section 7.2.3: the memory cost of
// policy-driven replication vs replicate-code-on-first-touch.
func BenchmarkReplicationSpace(b *testing.B) {
	runExperiment(b, "S7.2.3")
	h := harness()
	b.ReportMetric(100*h.MigRep("engineering").Alloc.ReplicaOverhead(), "engr_policy_%")
	ab := h.Run("engineering", core.Options{Dynamic: true, ReplicateCodeOnFirstTouch: true})
	b.ReportMetric(100*ab.Alloc.ReplicaOverhead(), "engr_firsttouch_%")
}

// BenchmarkFigure4ReadChains regenerates Figure 4: the read-chain CDF over
// user data misses.
func BenchmarkFigure4ReadChains(b *testing.B) {
	runExperiment(b, "F4")
	h := harness()
	c := trace.ReadChains(h.Trace("raytrace").UserOnly(), trace.DefaultThresholds)
	b.ReportMetric(100*c.FractionAt(512), "ray_chain512_%")
}

// BenchmarkFigure6Policies regenerates Figure 6: the six policies over the
// recorded miss traces.
func BenchmarkFigure6Policies(b *testing.B) {
	runExperiment(b, "F6")
	h := harness()
	tr := h.Trace("engineering").UserOnly()
	cfg := tracesim.DefaultConfig(8)
	outs := tracesim.SimulateAll(tr, cfg)
	rr := float64(outs[0].Total())
	b.ReportMetric(float64(outs[2].Total())/rr, "engr_pf_norm")
	b.ReportMetric(float64(outs[5].Total())/rr, "engr_migrep_norm")
}

// BenchmarkFigure7PmakeKernel regenerates Figure 7: the policies applied to
// the pmake kernel miss trace.
func BenchmarkFigure7PmakeKernel(b *testing.B) {
	runExperiment(b, "F7")
	h := harness()
	tr := h.Trace("pmake").KernelOnly()
	cfg := tracesim.DefaultConfig(8)
	ft := tracesim.Simulate(tr, cfg, tracesim.FT)
	mr := tracesim.Simulate(tr, cfg, tracesim.MigRep)
	b.ReportMetric(float64(mr.Total())/float64(ft.Total()), "kernel_migrep_vs_ft")
}

// BenchmarkFigure8Metrics regenerates Figure 8: full/sampled cache and TLB
// information sources.
func BenchmarkFigure8Metrics(b *testing.B) {
	runExperiment(b, "F8")
	h := harness()
	tr := h.Trace("engineering").UserOnly()
	cfg := tracesim.DefaultConfig(8)
	outs := tracesim.SimulateMetrics(tr, cfg)
	b.ReportMetric(float64(outs[1].Total())/float64(outs[0].Total()), "sc_vs_fc")
	b.ReportMetric(float64(outs[2].Total())/float64(outs[0].Total()), "ft_vs_fc")
}

// BenchmarkFigure9Trigger regenerates Figure 9: the trigger-threshold sweep.
func BenchmarkFigure9Trigger(b *testing.B) {
	runExperiment(b, "F9")
}

// BenchmarkSharingThreshold regenerates Section 8.4's sharing-threshold
// sensitivity check.
func BenchmarkSharingThreshold(b *testing.B) {
	runExperiment(b, "S8.4")
}

// BenchmarkFullSystemEngineering measures raw simulator throughput: one
// complete engineering run per iteration (not memoized), reported in
// millions of simulated memory references per second of wall time.
func BenchmarkFullSystemEngineering(b *testing.B) {
	var steps uint64
	for i := 0; i < b.N; i++ {
		h := report.NewHarness(0.25, uint64(i+1))
		steps += h.FT("engineering").Steps
	}
	b.ReportMetric(float64(steps)/(b.Elapsed().Seconds()*1e6), "Mrefs/s")
}

// BenchmarkTraceSimThroughput measures the Section-8 simulator's record
// throughput over a cached trace.
func BenchmarkTraceSimThroughput(b *testing.B) {
	h := harness()
	tr := h.Trace("raytrace").UserOnly()
	cfg := tracesim.DefaultConfig(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracesim.Simulate(tr, cfg, tracesim.MigRep)
	}
	b.ReportMetric(float64(tr.Len()), "records")
}

// BenchmarkExtWriteSharedMigration regenerates extension X1: migrating
// write-shared pages toward the heaviest writer (Section 7.1.2's sketch).
func BenchmarkExtWriteSharedMigration(b *testing.B) {
	runExperiment(b, "X1")
}

// BenchmarkExtColdReplicaReclaim regenerates extension X2: bounding the
// replication space overhead via interval-based reclamation.
func BenchmarkExtColdReplicaReclaim(b *testing.B) {
	runExperiment(b, "X2")
	h := harness()
	rec := h.Run("raytrace", core.Options{Dynamic: true, ReclaimColdReplicas: true})
	b.ReportMetric(100*rec.Alloc.ReplicaOverhead(), "reclaim_space_%")
}

// BenchmarkExtAdaptiveTrigger regenerates extension X3: the self-adjusting
// trigger threshold.
func BenchmarkExtAdaptiveTrigger(b *testing.B) {
	runExperiment(b, "X3")
}

// BenchmarkExtGroupedCounters regenerates extension X4: shared per-group
// miss counters (space vs policy quality).
func BenchmarkExtGroupedCounters(b *testing.B) {
	runExperiment(b, "X4")
}

// BenchmarkAblationStalePTE regenerates ablation X5: the paper's Splash
// limitation (no pte remap when a local replica already exists).
func BenchmarkAblationStalePTE(b *testing.B) {
	runExperiment(b, "X5")
}
