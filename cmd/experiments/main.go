// Command experiments regenerates the paper's tables and figures and prints
// each with the paper's published numbers alongside.
//
// Usage:
//
//	experiments                 # run everything at full scale
//	experiments -only F3,T4     # a subset
//	experiments -scale 0.5      # smaller, faster workloads
//	experiments -j 4            # at most 4 concurrent simulations
//	experiments -out EXPERIMENTS.out.md
//
// Each experiment fans its independent simulations across -j workers; the
// rendered report is byte-identical at any -j (verified by the report
// package's determinism test).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ccnuma/internal/profiling"
	"ccnuma/internal/report"
	"ccnuma/internal/workload"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		seed     = flag.Uint64("seed", 42, "random seed")
		only     = flag.String("only", "", "comma-separated experiment ids (default all)")
		out      = flag.String("out", "", "also write the report to this file")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations per experiment")
		progress = flag.Bool("progress", false, "log each simulation and memo hit to stderr")
		metrics  = flag.String("metrics", "", "write one JSON record per simulation and memo hit (JSONL) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile after the run to this file")

		runTimeout = flag.Duration("run-timeout", 0, "per-simulation wall-clock timeout (0 = none)")
		keepGoing  = flag.Bool("keep-going", false, "complete the grid past failed runs and write a failure manifest")
		manifest   = flag.String("manifest", "", "failure-manifest path (default <out>.failures.json or experiments.failures.json)")
		spansPth   = flag.String("spans", "", "write the harness span timeline (Chrome trace JSON, wall clock) to this file")
		recorderN  = flag.Int("recorder", 0, "flight-recorder depth: keep the last N obs events per run for failure manifests (0 = off; pair with -keep-going)")
	)
	flag.Parse()

	if *list {
		for _, e := range report.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	// Resolve every requested id before running anything, so a typo at the
	// end of -only fails fast instead of discarding completed experiments.
	exps := report.Experiments()
	if *only != "" {
		exps = exps[:0]
		bad := false
		for _, id := range strings.Split(*only, ",") {
			e, err := report.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				bad = true
				continue
			}
			exps = append(exps, e)
		}
		if bad {
			os.Exit(1)
		}
	}

	if err := workload.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	h := report.NewHarness(*scale, *seed)
	h.Workers = *jobs
	h.RunTimeout = *runTimeout
	h.KeepGoing = *keepGoing
	h.RecorderDepth = *recorderN
	if *progress {
		t0 := time.Now()
		h.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%8s] %s\n",
				time.Since(t0).Round(time.Millisecond), fmt.Sprintf(format, args...))
		}
	}
	var doc strings.Builder
	writeOut := func() {
		if *out == "" || doc.Len() == 0 {
			return
		}
		if err := os.WriteFile(*out, []byte(doc.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return
		}
		fmt.Println("wrote", *out)
	}
	writeSpans := func() {
		if *spansPth == "" {
			return
		}
		recs := h.Records()
		f, err := os.Create(*spansPth)
		if err == nil {
			if err = report.WriteSpans(f, recs); err == nil {
				err = f.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return
		}
		fmt.Printf("wrote %s (%d records; load in Perfetto)\n", *spansPth, len(recs))
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// A failed simulation surfaces as a panic from the report layer; keep
	// the completed sections by writing the partial document on that path.
	defer func() {
		if r := recover(); r != nil {
			stopProf()
			writeOut()
			writeSpans()
			fmt.Fprintln(os.Stderr, "experiments:", r)
			os.Exit(1)
		}
	}()

	start := time.Now()
	var failedExps []string
	// newFailures returns, once each, the failed runs behind the records not
	// seen before: those of the experiment that just ran, since experiments
	// run one after another. A failed run stays in the memo, so a later
	// experiment that asks for it again gets a memo hit, and fails with it.
	// seenKey names one record: its run's id and its start time.
	type seenKey struct {
		id    string
		start time.Duration
	}
	seen := map[seenKey]bool{}
	newFailures := func() []report.Record {
		recs := h.Records()
		final := map[string]report.Record{}
		for _, r := range report.FailedRuns(recs) {
			final[r.ID] = r
		}
		var out []report.Record
		for _, r := range recs {
			if k := (seenKey{r.ID, r.WallStart}); !seen[k] {
				seen[k] = true
				if f, failed := final[r.ID]; failed {
					delete(final, r.ID) // list each run once
					out = append(out, f)
				}
			}
		}
		return out
	}
	runExp := func(e report.Experiment) (body string) {
		if *keepGoing {
			// A failed run leaves a placeholder result (zero counts) that
			// would render as numbers, or break the rendering; under
			// -keep-going either costs only this section, which renders as
			// FAILED, not the rest of the grid.
			defer func() {
				r := recover()
				failed := newFailures()
				if r == nil && len(failed) == 0 {
					return
				}
				failedExps = append(failedExps, e.ID)
				if r != nil {
					body = fmt.Sprintf("FAILED: %v\n", r)
					return
				}
				var b strings.Builder
				fmt.Fprintf(&b, "FAILED: %d simulation run(s) failed:\n\n", len(failed))
				for _, f := range failed {
					fmt.Fprintf(&b, "- %s id=%s %s\n", f.Workload, f.ID, f.State)
				}
				body = b.String()
			}()
		}
		return e.Run(h)
	}
	for _, e := range exps {
		t0 := time.Now()
		body := runExp(e)
		fmt.Fprintf(&doc, "## %s — %s\n\n%s\n", e.ID, e.Title, body)
		fmt.Printf("== %s — %s (%v)\n\n%s\n", e.ID, e.Title, time.Since(t0).Round(time.Millisecond), body)
	}
	stopProf()
	executed, hits := h.Counters()
	fmt.Printf("== %d experiments in %v (-j %d): %d simulations run, %d served from memo\n",
		len(exps), time.Since(start).Round(time.Millisecond), *jobs, executed, hits)

	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		recs := h.Records()
		enc := json.NewEncoder(f)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d records)\n", *metrics, len(recs))
	}

	writeOut()
	writeSpans()

	if failures := report.FailedRuns(h.Records()); len(failures) > 0 || len(failedExps) > 0 {
		path := *manifest
		if path == "" {
			if *out != "" {
				path = *out + ".failures.json"
			} else {
				path = "experiments.failures.json"
			}
		}
		m := struct {
			Completed         int             `json:"completed"`
			Total             int             `json:"total"`
			ExperimentsFailed []string        `json:"experiments_failed"`
			RunsFailed        []report.Record `json:"runs_failed"`
		}{
			Completed:         len(exps) - len(failedExps),
			Total:             len(exps),
			ExperimentsFailed: failedExps,
			RunsFailed:        failures,
		}
		if m.ExperimentsFailed == nil {
			m.ExperimentsFailed = []string{}
		}
		if m.RunsFailed == nil {
			m.RunsFailed = []report.Record{}
		}
		b, err := json.MarshalIndent(m, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		} else {
			fmt.Fprintf(os.Stderr, "experiments: %d run(s) failed, %d experiment(s) incomplete; manifest: %s\n",
				len(failures), len(failedExps), path)
		}
		os.Exit(1)
	}
}
