package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// hostModules are the packages the profile is folded into, in report order.
// kernel covers internal/kernel/* (pager, vm, alloc, sched, klock).
var hostModules = []string{"workload", "tlb", "cache", "directory", "interconnect", "kernel", "policy", "sim", "core", "runtime"}

// foldProfile folds CPU profiles' self (flat) time by package, using the
// toolchain's pprof (which merges the profiles), and returns each module's
// share of all samples.
func foldProfile(paths ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(out)
}

// foldTop parses `pprof -top -unit=ms` text: after the column header, each
// row is "flat flat% sum% cum cum% function". Self time is summed per
// module and returned as shares of the total.
func foldTop(text []byte) (map[string]float64, error) {
	sums := map[string]float64{}
	var total float64
	inRows := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		sums[moduleOf(strings.Join(f[5:], " "))] += v
		total += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inRows || total == 0 {
		return nil, fmt.Errorf("pprof output has no samples")
	}
	for k := range sums {
		sums[k] /= total
	}
	return sums, nil
}

// moduleOf maps a pprof function name to its module: the first path
// element under ccnuma/internal, "runtime" for the Go runtime, "other" for
// everything else (the benchmark itself, the rest of the standard library).
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "ccnuma/internal/"); ok {
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "runtime"
	}
	return "other"
}
