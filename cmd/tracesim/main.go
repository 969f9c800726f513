// Command tracesim runs the Section-8 trace-driven policy comparison: it
// reads a miss trace (produced by numasim -trace, or generates one for a
// named workload) and prints each policy's stall, overhead, and actions.
//
// Usage:
//
//	tracesim -workload raytrace                # generate + compare policies
//	tracesim -in misses.trc -nodes 8           # compare over a saved trace
//	tracesim -workload engineering -metrics    # Figure-8 metric comparison
//	tracesim -workload splash -kernel          # kernel misses only (Fig 7)
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"ccnuma/internal/core"
	"ccnuma/internal/policy"
	"ccnuma/internal/trace"
	"ccnuma/internal/tracesim"
	"ccnuma/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "", "generate a trace for this workload")
		in      = flag.String("in", "", "read a binary trace from this file")
		nodes   = flag.Int("nodes", 8, "machine nodes (used with -in)")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		seed    = flag.Uint64("seed", 42, "random seed")
		trigger = flag.Uint("trigger", 0, "trigger threshold (0 = workload default)")
		metrics = flag.Bool("metrics", false, "compare FC/SC/FT/ST metrics instead of policies")
		kernel  = flag.Bool("kernel", false, "use only kernel-mode misses (Section 8.2)")
		user    = flag.Bool("user", true, "use only user-mode misses")
		summary = flag.Bool("summary", false, "print a trace summary before the comparison")
	)
	flag.Parse()

	if *trigger > math.MaxUint16 {
		// The policy counters are 16-bit; a wider value must not wrap into a
		// different threshold (numasim rejects it the same way).
		fatal(fmt.Errorf("-trigger %d out of range (maximum %d)", *trigger, math.MaxUint16))
	}
	if *nodes < 1 || *nodes > tracesim.MaxNodes {
		fatal(fmt.Errorf("-nodes %d out of range [1, %d]", *nodes, tracesim.MaxNodes))
	}
	if err := workload.CheckScale(*scale); err != nil {
		fatal(err)
	}
	var tr *trace.Trace
	trig := uint16(128)
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		tr, err = trace.Read(f)
		f.Close()
		if err == nil {
			// The policy simulator models one CPU per node.
			err = tr.Validate(*nodes)
		}
		if err != nil {
			fatal(err)
		}
	case *wl != "":
		build, err := workload.ByName(*wl)
		if err != nil {
			fatal(err)
		}
		spec := build(*scale, *seed)
		trig = spec.Trigger
		if spec.Nodes > 0 {
			*nodes = spec.Nodes
		}
		res, err := core.Run(spec, core.Options{Seed: *seed, CollectTrace: true})
		if err != nil {
			fatal(err)
		}
		tr = res.Trace
		fmt.Printf("generated %d miss records from %s (FT run, %v)\n\n", tr.Len(), *wl, res.Elapsed)
	default:
		fatal(fmt.Errorf("need -workload or -in"))
	}

	if *kernel {
		tr = tr.KernelOnly()
	} else if *user {
		tr = tr.UserOnly()
	}
	if *trigger > 0 {
		trig = uint16(*trigger)
	}
	if *summary {
		fmt.Print(trace.Summarize(tr, 5))
		fmt.Println()
	}

	cfg := tracesim.DefaultConfig(*nodes)
	cfg.Params = policy.Base().WithTrigger(trig)

	if *metrics {
		fmt.Println("metric comparison (Mig/Rep under each information source):")
		for _, o := range tracesim.SimulateMetrics(tr, cfg) {
			fmt.Printf("  %-3s %s\n", o.Metric, o)
		}
		return
	}
	fmt.Println("policy comparison (Section 8 contentionless model):")
	outs := tracesim.SimulateAll(tr, cfg)
	base := outs[0].Total()
	for _, o := range outs {
		fmt.Printf("  %s  norm=%.3f\n", o, float64(o.Total())/float64(base))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracesim:", err)
	os.Exit(1)
}
