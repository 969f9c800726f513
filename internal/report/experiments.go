package report

import (
	"fmt"
	"strings"

	"ccnuma/internal/core"
	"ccnuma/internal/directory"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
	"ccnuma/internal/topology"
	"ccnuma/internal/trace"
	"ccnuma/internal/tracesim"
)

// fig3Workloads are the workloads of Sections 7.1-7.2 (large user stall).
var fig3Workloads = []string{"engineering", "raytrace", "splash", "database"}

// paperT3 holds Table 3's published characterisation: user/kernel/idle % of
// execution time, then Kinstr/Kdata/Uinstr/Udata stall % of non-idle.
var paperT3 = map[string][7]float64{
	"engineering": {74, 6, 20, 1.6, 3.8, 34.4, 37.4},
	"raytrace":    {69, 25, 6, 3.6, 15.1, 4.8, 36.1},
	"splash":      {65, 17, 18, 4.4, 11.8, 3.1, 36.3},
	"database":    {55, 7, 38, 1.4, 6.0, 2.5, 50.3},
	"pmake":       {34, 44, 22, 4.0, 29.3, 3.6, 9.1},
}

func init() {
	register("T3", "Workload characterisation (Table 3)", table3)
	register("F3", "Base policy vs first touch (Figure 3)", figure3)
	register("T4", "Actions taken on hot pages (Table 4)", table4)
	register("S7.1.2", "System-wide contention benefit (Section 7.1.2)", contention)
	register("F5", "CC-NUMA vs CC-NOW (Figure 5, Section 7.1.3)", figure5)
	register("T5", "Per-operation step latencies (Table 5)", table5)
	register("T6", "Kernel overhead by function (Table 6)", table6)
	register("S7.2.1", "Information-gathering space overhead (Section 7.2.1)", spaceOverhead)
	register("S7.2.3", "Replication space overhead (Section 7.2.3)", replicationSpace)
	register("F4", "Read-chain distribution (Figure 4)", figure4)
	register("F6", "Policy comparison over traces (Figure 6)", figure6)
	register("F7", "Kernel misses under the policies (Figure 7)", figure7)
	register("F8", "Approximate information metrics (Figure 8)", figure8)
	register("F9", "Trigger-threshold sweep (Figure 9)", figure9)
	register("S8.4", "Sharing-threshold sensitivity (Section 8.4)", sharingSweep)
}

func table3(h *Harness) string {
	var b strings.Builder
	wls := append(append([]string{}, fig3Workloads...), "pmake")
	h.forEach(len(wls), func(i int) { h.FT(wls[i]) })
	row(&b, "workload", "user%", "kern%", "idle%", "Kinstr%", "Kdata%", "Uinstr%", "Udata%")
	for _, wl := range wls {
		r := h.FT(wl)
		bd := &r.Agg
		tot, ni := bd.Total(), bd.NonIdle()
		user := bd.Compute[stats.User] + bd.StallTime(stats.User, stats.Instr) + bd.StallTime(stats.User, stats.Data)
		kern := tot - bd.Idle - user
		p := paperT3[wl]
		row(&b, wl,
			pct(100*float64(user)/float64(tot)), pct(100*float64(kern)/float64(tot)),
			pct(100*float64(bd.Idle)/float64(tot)),
			pct(100*float64(bd.StallTime(stats.Kernel, stats.Instr))/float64(ni)),
			pct(100*float64(bd.StallTime(stats.Kernel, stats.Data))/float64(ni)),
			pct(100*float64(bd.StallTime(stats.User, stats.Instr))/float64(ni)),
			pct(100*float64(bd.StallTime(stats.User, stats.Data))/float64(ni)))
		row(&b, "  (paper)", pct(p[0]), pct(p[1]), pct(p[2]), pct(p[3]), pct(p[4]), pct(p[5]), pct(p[6]))
	}
	return b.String()
}

// paperF3 holds Figure 3's improvements: total execution time and memory
// stall reduction, percent.
var paperF3 = map[string][2]float64{
	"engineering": {29, 52},
	"raytrace":    {15, 36},
	"splash":      {4, 24},
	"database":    {5, 10},
}

func memStall(r *core.Result) sim.Time {
	_, local, remote := r.Agg.MemStall()
	return local + remote
}

func figure3(h *Harness) string {
	var b strings.Builder
	h.forEach(2*len(fig3Workloads), func(i int) {
		if wl := fig3Workloads[i/2]; i%2 == 0 {
			h.FT(wl)
		} else {
			h.MigRep(wl)
		}
	})
	row(&b, "workload", "time impr", "(paper)", "stall impr", "(paper)", "FT local%", "M/R local%", "overhead%")
	for _, wl := range fig3Workloads {
		ft, mr := h.FT(wl), h.MigRep(wl)
		p := paperF3[wl]
		row(&b, wl,
			pct(improvement(ft.Agg.NonIdle(), mr.Agg.NonIdle())), pct(p[0]),
			pct(improvement(memStall(ft), memStall(mr))), pct(p[1]),
			pct(100*ft.LocalMissFraction), pct(100*mr.LocalMissFraction),
			pct(100*float64(mr.Agg.Pager.Total())/float64(mr.Agg.NonIdle())))
	}
	b.WriteString("\nExecution time is machine-wide non-idle time for the fixed workload;\n")
	b.WriteString("the paper's Figures 3/5 likewise plot non-idle execution time.\n")
	return b.String()
}

// paperT4 rows: hot pages, %migrate, %replicate, %no-action, %no-page.
var paperT4 = map[string][5]float64{
	"engineering": {7728, 55, 27, 12, 6},
	"raytrace":    {2934, 34, 31, 35, 0},
	"splash":      {6328, 36, 22, 18, 24},
	"database":    {2003, 13, 2, 85, 0},
}

func table4(h *Harness) string {
	var b strings.Builder
	h.forEach(len(fig3Workloads), func(i int) { h.MigRep(fig3Workloads[i]) })
	row(&b, "workload", "hot pages", "migrate%", "replicate%", "no-action%", "no-page%")
	for _, wl := range fig3Workloads {
		mr := h.MigRep(wl)
		mig, rep, none, nopage := mr.Actions.Percent()
		p := paperT4[wl]
		row(&b, wl, fmt.Sprint(mr.Actions.HotPages), pct(mig), pct(rep), pct(none), pct(nopage))
		row(&b, "  (paper)", fmt.Sprint(int(p[0])), pct(p[1]), pct(p[2]), pct(p[3]), pct(p[4]))
	}
	return b.String()
}

func contention(h *Harness) string {
	var b strings.Builder
	h.warm(
		func() { h.FT("engineering") },
		func() { h.MigRep("engineering") },
		func() { h.Run("engineering", core.Options{Config: topology.ZeroNet()}) },
		func() { h.Run("engineering", core.Options{Config: topology.ZeroNet(), Dynamic: true}) },
	)
	ft, mr := h.FT("engineering"), h.MigRep("engineering")
	fc, mc := ft.Contention, mr.Contention
	row(&b, "metric", "FT", "Mig/Rep", "reduction", "(paper)")
	row(&b, "remote handlers", fmt.Sprint(fc.RemoteHandlerInvocations), fmt.Sprint(mc.RemoteHandlerInvocations),
		pct(100*(1-float64(mc.RemoteHandlerInvocations)/float64(fc.RemoteHandlerInvocations))), "40.0%")
	row(&b, "avg dir wait", fc.AvgDirWait.String(), mc.AvgDirWait.String(),
		pct(improvement(fc.AvgDirWait, mc.AvgDirWait)), "38.0%*")
	row(&b, "max dir occup", fmt.Sprintf("%.3f", fc.MaxDirOccupancy), fmt.Sprintf("%.3f", mc.MaxDirOccupancy),
		pct(100*(1-safeDiv(mc.MaxDirOccupancy, fc.MaxDirOccupancy))), "32.0%")
	row(&b, "local read lat", fc.AvgLocalReadLatency.String(), mc.AvgLocalReadLatency.String(),
		pct(improvement(fc.AvgLocalReadLatency, mc.AvgLocalReadLatency)), "34.0%")
	b.WriteString("(* the paper reports the mean network queue length; our links are\nunsaturated, so queueing shows up at the directory controllers instead)\n")

	// Zero-network-delay run: locality still matters without any network.
	zft := h.Run("engineering", core.Options{Config: topology.ZeroNet()})
	zmr := h.Run("engineering", core.Options{Config: topology.ZeroNet(), Dynamic: true})
	fmt.Fprintf(&b, "\nzero-network-delay configuration:\n")
	row(&b, "", "stall impr", "(paper)", "time impr", "(paper)")
	row(&b, "engineering",
		pct(improvement(memStall(zft), memStall(zmr))), "38.0%",
		pct(improvement(zft.Agg.NonIdle(), zmr.Agg.NonIdle())), "21.0%")
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func figure5(h *Harness) string {
	var b strings.Builder
	h.warm(
		func() { h.FT("engineering") },
		func() { h.MigRep("engineering") },
		func() { h.Run("engineering", core.Options{Config: topology.CCNOW()}) },
		func() { h.Run("engineering", core.Options{Config: topology.CCNOW(), Dynamic: true}) },
	)
	numaFT, numaMR := h.FT("engineering"), h.MigRep("engineering")
	nowFT := h.Run("engineering", core.Options{Config: topology.CCNOW()})
	nowMR := h.Run("engineering", core.Options{Config: topology.CCNOW(), Dynamic: true})
	row(&b, "config", "time impr", "(paper)", "stall impr", "(paper)", "obs remote", "min")
	row(&b, "cc-numa",
		pct(improvement(numaFT.Agg.NonIdle(), numaMR.Agg.NonIdle())), "29.0%",
		pct(improvement(memStall(numaFT), memStall(numaMR))), "52.0%",
		numaFT.AvgRemoteLatency.String(), "1200ns")
	row(&b, "cc-now",
		pct(improvement(nowFT.Agg.NonIdle(), nowMR.Agg.NonIdle())), "30.0%",
		pct(improvement(memStall(nowFT), memStall(nowMR))), "53.0%",
		nowFT.AvgRemoteLatency.String(), "3000ns")
	b.WriteString("\n(The paper observes 2279ns on CC-NUMA and 3680ns on CC-NOW: controller\noccupancy inflates the minimum remote latency.)\n")
	return b.String()
}

// paperT5 per workload: replication then migration step rows, microseconds:
// Intr, Decision, Alloc, Links, TLB, Copy, End, Total.
var paperT5 = map[string][2][8]float64{
	"engineering": {{12.0, 12.6, 184.3, 28.6, 35.9, 87.0, 80.5, 441.9}, {13.0, 12.6, 184.3, 75.8, 35.9, 87.0, 63.4, 472.0}},
	"raytrace":    {{24.4, 16.0, 74.4, 34.3, 61.5, 106.7, 77.4, 394.7}, {24.4, 16.0, 74.4, 100.5, 61.5, 106.7, 64.9, 448.4}},
	"splash":      {{22.2, 12.8, 170.6, 40.2, 51.3, 97.1, 91.9, 486.1}, {22.2, 12.8, 170.6, 99.7, 51.3, 97.1, 62.4, 516.1}},
}

var t5Steps = []stats.PagerFunc{
	stats.FnIntrProc, stats.FnPolicyDecision, stats.FnPageAlloc,
	stats.FnLinksMapping, stats.FnTLBFlush, stats.FnPageCopy, stats.FnPolicyEnd,
}

var t5Workloads = []string{"engineering", "raytrace", "splash"}

func table5(h *Harness) string {
	var b strings.Builder
	h.forEach(len(t5Workloads), func(i int) { h.MigRep(t5Workloads[i]) })
	scale := 1.0 / topology.CCNUMA().CostScale
	row(&b, "workload/op", "Intr", "Decide", "Alloc", "Links", "TLB", "Copy", "End", "Total")
	for _, wl := range t5Workloads {
		mr := h.MigRep(wl)
		for ki, kind := range []stats.OpKind{stats.OpReplicate, stats.OpMigrate} {
			ol := mr.Agg.Pager.OpLatency[kind]
			cells := []string{fmt.Sprintf("%s %s", wl[:4], kind)}
			for _, f := range t5Steps {
				cells = append(cells, fmt.Sprintf("%.1f", ol.MeanStep(f)*scale))
			}
			cells = append(cells, fmt.Sprintf("%.1f", ol.MeanTotal()*scale))
			row(&b, cells...)
			p := paperT5[wl][ki]
			pc := []string{"  (paper)"}
			for _, v := range p {
				pc = append(pc, fmt.Sprintf("%.1f", v))
			}
			row(&b, pc...)
		}
	}
	fmt.Fprintf(&b, "\nLatencies in microseconds, paper-equivalent (measured x %.0f; see\nDESIGN.md on cost scaling). Interrupt and TLB-flush costs are amortized\nover the batch, as in the paper.\n", scale)
	return b.String()
}

// paperT6 per workload: kernel overhead seconds, then % by function in
// Table 6's order: TLB, Alloc, Copy, Fault, Links, End, Decision, Intr.
var paperT6 = map[string][9]float64{
	"engineering": {4.54, 34.5, 25.5, 11.1, 8.9, 8.3, 8.8, 2.1, 1.7},
	"raytrace":    {1.80, 54.4, 7.6, 10.8, 5.4, 7.4, 7.4, 2.6, 2.6},
	"splash":      {4.00, 44.1, 20.7, 8.1, 7.3, 6.5, 6.3, 2.0, 1.9},
}

var t6Funcs = []stats.PagerFunc{
	stats.FnTLBFlush, stats.FnPageAlloc, stats.FnPageCopy, stats.FnPageFault,
	stats.FnLinksMapping, stats.FnPolicyEnd, stats.FnPolicyDecision, stats.FnIntrProc,
}

func table6(h *Harness) string {
	var b strings.Builder
	trackCfg := topology.CCNUMA()
	trackCfg.TrackTLBHolders = true
	copyCfg := topology.CCNUMA()
	copyCfg.DirCopy = true
	h.warm(
		func() { h.MigRep("engineering") },
		func() { h.MigRep("raytrace") },
		func() { h.MigRep("splash") },
		func() { h.Run("engineering", core.Options{Config: trackCfg, Dynamic: true}) },
		func() { h.Run("engineering", core.Options{Config: copyCfg, Dynamic: true}) },
	)
	row(&b, "workload", "ovhd", "TLB%", "Alloc%", "Copy%", "Fault%", "Links%", "End%", "Decide%", "Intr%")
	for _, wl := range t5Workloads {
		mr := h.MigRep(wl)
		pb := &mr.Agg.Pager
		cells := []string{wl, pb.Total().String()}
		for _, f := range t6Funcs {
			cells = append(cells, pct(pb.Percent(f)))
		}
		row(&b, cells...)
		p := paperT6[wl]
		pc := []string{"  (paper)", fmt.Sprintf("%.2fs", p[0])}
		for i := 1; i < 9; i++ {
			pc = append(pc, pct(p[i]))
		}
		row(&b, pc...)
	}

	// Ablations the paper discusses in 7.2.2: tracking TLB holders
	// (-25% kernel overhead) and the directory's pipelined copy.
	baseRun := h.MigRep("engineering")
	tracked := h.Run("engineering", core.Options{Config: trackCfg, Dynamic: true})
	dircopy := h.Run("engineering", core.Options{Config: copyCfg, Dynamic: true})
	fmt.Fprintf(&b, "\nablations (engineering): base overhead %v, busy %v\n",
		baseRun.Agg.Pager.Total(), baseRun.Agg.NonIdle())
	fmt.Fprintf(&b, "  track-TLB-holders: overhead %v (%s less), busy %v (paper: ~25%% less overhead)\n",
		tracked.Agg.Pager.Total(), pct(improvement(baseRun.Agg.Pager.Total(), tracked.Agg.Pager.Total())),
		tracked.Agg.NonIdle())
	fmt.Fprintf(&b, "  directory page copy: overhead %v, busy %v (paper: copy 100us -> 35us;\n  cheaper copies let the same interrupt budget move more pages)\n",
		dircopy.Agg.Pager.Total(), dircopy.Agg.NonIdle())
	return b.String()
}

func spaceOverhead(h *Harness) string {
	var b strings.Builder
	h.warm(
		func() { h.MigRep("engineering") },
		func() { h.Run("engineering", core.Options{Dynamic: true, Metric: policy.SampledCache}) },
	)
	row(&b, "configuration", "overhead", "(paper)")
	row(&b, "8 nodes, 1B ctrs", pct(100*directory.SpaceOverhead(8, 1)), "0.2%")
	row(&b, "128 nodes, 1B", pct(100*directory.SpaceOverhead(128, 1)), "3.1%")
	row(&b, "128 nodes, 0.5B", pct(100*directory.SpaceOverhead(128, 0.5)), "1.6%")
	mr := h.MigRep("engineering")
	fmt.Fprintf(&b, "\nsampling: %d of %d misses counted (rate 1, full info run);\n",
		mr.Counters.Counted, mr.Counters.Recorded)
	sc := h.Run("engineering", core.Options{Dynamic: true, Metric: policy.SampledCache})
	fmt.Fprintf(&b, "sampled-cache run counted %d of %d (1:10).\n", sc.Counters.Counted, sc.Counters.Recorded)
	return b.String()
}

func replicationSpace(h *Harness) string {
	var b strings.Builder
	h.warm(
		func() { h.MigRep("engineering") },
		func() { h.MigRep("raytrace") },
		func() { h.Run("engineering", core.Options{Dynamic: true, ReplicateCodeOnFirstTouch: true}) },
	)
	row(&b, "workload", "policy repl", "(paper)", "code-FT repl", "(paper)")
	for _, wl := range []string{"engineering", "raytrace"} {
		mr := h.MigRep(wl)
		paperBase := "32.0%"
		ablCell, paperAbl := "-", "-"
		if wl == "raytrace" {
			paperBase = "20.0%"
		} else {
			// The paper states this blow-up for engineering only: six
			// instances of each binary, one text copy per node.
			ablate := h.Run(wl, core.Options{Dynamic: true, ReplicateCodeOnFirstTouch: true})
			ablCell = pct(100 * float64(ablate.Alloc.PeakReplica) / float64(h.CodePages(wl)))
			paperAbl = "~500%"
		}
		row(&b, wl,
			pct(100*mr.Alloc.ReplicaOverhead()), paperBase,
			ablCell, paperAbl)
	}
	b.WriteString("\nPolicy overhead is peak replica frames over peak base frames (total\nmemory increase). The replicate-code-on-first-touch column is stated as\nthe paper states it: extra copies relative to the code footprint.\n")
	return b.String()
}

func figure4(h *Harness) string {
	var b strings.Builder
	h.forEach(len(fig3Workloads), func(i int) { h.Trace(fig3Workloads[i]) })
	ths := []int{1, 8, 64, 512}
	row(&b, "workload", ">=1", ">=8", ">=64", ">=512", "paper(>=512)")
	paper512 := map[string]string{"raytrace": "60%", "splash": "30%", "engineering": "-", "database": "low"}
	for _, wl := range fig3Workloads {
		tr := h.Trace(wl).UserOnly()
		c := trace.ReadChains(tr, ths)
		cells := []string{wl}
		for i := range ths {
			cells = append(cells, pct(100*c.FractionAtLeast[i]))
		}
		cells = append(cells, paper512[wl])
		row(&b, cells...)
	}
	return b.String()
}

func traceCfg(h *Harness, wl string) tracesim.Config {
	cfg := tracesim.DefaultConfig(h.Nodes(wl))
	cfg.Params = h.BasePolicy(wl)
	cfg.OtherTime = h.OtherTime(wl)
	return cfg
}

func figure6(h *Harness) string {
	var b strings.Builder
	grid := simGrid(h, fig3Workloads, len(tracesim.Kinds), (*trace.Trace).UserOnly,
		func(tr *trace.Trace, cfg tracesim.Config, v int) tracesim.Outcome {
			return tracesim.Simulate(tr, cfg, tracesim.Kinds[v])
		})
	row(&b, "workload", "RR", "FT", "PF", "Migr", "Repl", "Mig/Rep", "local%(M/R)")
	for wi, wl := range fig3Workloads {
		outs := grid[wi]
		base := outs[0].Total() // RR
		cells := []string{wl}
		var last tracesim.Outcome
		for _, o := range outs {
			cells = append(cells, fmt.Sprintf("%.2f", float64(o.Total())/float64(base)))
			last = o
		}
		cells = append(cells, pct(100*last.LocalFraction()))
		row(&b, cells...)
	}
	b.WriteString("\nengineering, normalized (the paper's Figure-6 bars):\n")
	{
		outs := grid[0] // engineering
		base := float64(outs[0].Total())
		labels := make([]string, len(outs))
		vals := make([]float64, len(outs))
		for i, o := range outs {
			labels[i] = o.Policy.String()
			vals[i] = float64(o.Total()) / base
		}
		bars(&b, labels, vals, 44)
		b.WriteString("\n  composition of the Mig/Rep bar (L=local stall, R=remote, O=overhead,\n  .=other):\n")
		o := outs[len(outs)-1]
		stackedBar(&b, "Mig/Rep", []float64{
			float64(o.StallLocal), float64(o.StallRemote),
			float64(o.Overhead), float64(o.Other)},
			[]byte{'L', 'R', 'O', '.'}, 48)
	}
	b.WriteString("\nTotals (stall + movement overhead + placement-independent time)\nnormalized to round-robin. Paper: the dynamic policies beat every static\nplacement, including post-facto, for three of the four workloads.\n")
	return b.String()
}

func figure7(h *Harness) string {
	var b strings.Builder
	outs := simGrid(h, []string{"pmake"}, len(tracesim.Kinds), (*trace.Trace).KernelOnly,
		func(tr *trace.Trace, cfg tracesim.Config, v int) tracesim.Outcome {
			return tracesim.Simulate(tr, cfg, tracesim.Kinds[v])
		})[0]
	tr := h.Trace("pmake").KernelOnly()
	base := outs[0].Total()
	row(&b, "pmake kernel", "RR", "FT", "PF", "Migr", "Repl", "Mig/Rep")
	cells := []string{"normalized"}
	for _, o := range outs {
		cells = append(cells, fmt.Sprintf("%.2f", float64(o.Total())/float64(base)))
	}
	row(&b, cells...)
	instr := 0
	total := 0
	for _, r := range tr.Records {
		if r.Src == trace.CacheMiss {
			total++
			if r.Kind.IsInstr() {
				instr++
			}
		}
	}
	fmt.Fprintf(&b, "\nkernel code misses: %.0f%% of kernel misses (paper ~12%%). Paper: almost\nno benefit beyond first touch; the little there is comes from replicating\nkernel code.\n", 100*float64(instr)/float64(total))
	return b.String()
}

func figure8(h *Harness) string {
	var b strings.Builder
	metrics := []policy.Metric{policy.FullCache, policy.SampledCache,
		policy.FullTLB, policy.SampledTLB}
	// Variant 0 is the round-robin baseline; 1..4 run Mig/Rep under each
	// Figure-8 information source.
	grid := simGrid(h, fig3Workloads, 1+len(metrics), (*trace.Trace).UserOnly,
		func(tr *trace.Trace, cfg tracesim.Config, v int) tracesim.Outcome {
			if v == 0 {
				return tracesim.Simulate(tr, cfg, tracesim.RR)
			}
			cfg.Metric = metrics[v-1]
			return tracesim.Simulate(tr, cfg, tracesim.MigRep)
		})
	row(&b, "workload", "FC", "SC", "FT", "ST", "RR-norm")
	for wi, wl := range fig3Workloads {
		rr := grid[wi][0].Total()
		cells := []string{wl}
		for _, o := range grid[wi][1:] {
			cells = append(cells, fmt.Sprintf("%.2f", float64(o.Total())/float64(rr)))
		}
		cells = append(cells, "1.00")
		row(&b, cells...)
	}
	b.WriteString("\nMig/Rep run time normalized to round-robin under each information\nsource. Paper: sampled cache matches full cache everywhere; TLB misses\nare not a consistent approximation (engineering suffers most).\n")
	return b.String()
}

func figure9(h *Harness) string {
	var b strings.Builder
	triggers := []uint16{16, 32, 64, 128, 256}
	// Variant 0 is the round-robin baseline; 1..n sweep the trigger.
	grid := simGrid(h, fig3Workloads, 1+len(triggers), (*trace.Trace).UserOnly,
		func(tr *trace.Trace, cfg tracesim.Config, v int) tracesim.Outcome {
			if v == 0 {
				return tracesim.Simulate(tr, cfg, tracesim.RR)
			}
			cfg.Params = cfg.Params.WithTrigger(triggers[v-1])
			return tracesim.Simulate(tr, cfg, tracesim.MigRep)
		})
	row(&b, "workload", "t=16", "t=32", "t=64", "t=128", "t=256", "best")
	for wi, wl := range fig3Workloads {
		rr := grid[wi][0].Total()
		cells := []string{wl}
		best, bestV := uint16(0), 1e18
		for ti, t := range triggers {
			v := float64(grid[wi][1+ti].Total()) / float64(rr)
			cells = append(cells, fmt.Sprintf("%.2f", v))
			if v < bestV {
				best, bestV = t, v
			}
		}
		cells = append(cells, fmt.Sprint(best))
		row(&b, cells...)
	}
	b.WriteString("\nRun time normalized to round-robin; sharing threshold = trigger/4.\nLower triggers act more aggressively (more locality, more overhead);\nhigher triggers act less. The paper reports the same trade-off.\n")
	return b.String()
}

func sharingSweep(h *Harness) string {
	var b strings.Builder
	fracs := []uint16{8, 4, 2} // sharing = trigger/frac
	// Variant 0 is the round-robin baseline; 1..n sweep the sharing divisor.
	grid := simGrid(h, fig3Workloads, 1+len(fracs), (*trace.Trace).UserOnly,
		func(tr *trace.Trace, cfg tracesim.Config, v int) tracesim.Outcome {
			if v == 0 {
				return tracesim.Simulate(tr, cfg, tracesim.RR)
			}
			cfg.Params = cfg.Params.WithSharingFraction(fracs[v-1])
			return tracesim.Simulate(tr, cfg, tracesim.MigRep)
		})
	row(&b, "workload", "T/8", "T/4", "T/2")
	for wi, wl := range fig3Workloads {
		rr := grid[wi][0].Total()
		cells := []string{wl}
		for fi := range fracs {
			cells = append(cells, fmt.Sprintf("%.2f", float64(grid[wi][1+fi].Total())/float64(rr)))
		}
		row(&b, cells...)
	}
	b.WriteString("\nPaper: performance is insensitive to the sharing threshold within a\nreasonable range — pages are clearly shared or clearly unshared.\n")
	return b.String()
}
