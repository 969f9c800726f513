// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON document, so benchmark numbers (ns/op, allocs/op,
// and custom metrics like Mrefs/s) can be archived and diffed across
// commits without scraping.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -out BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// benchmark is one result line. Standard units get their own fields; any
// other unit (b.ReportMetric values such as Mrefs/s or records) lands in
// Metrics keyed by its unit string.
type benchmark struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "-", "output path (- for stdout)")
	flag.Parse()

	doc := document{Benchmarks: []benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

// parseLine decodes one "BenchmarkName-P  N  v1 unit1  v2 unit2 ..." line.
// Lines that do not fit the shape (e.g. a benchmark that printed its own
// output) are skipped rather than failing the whole conversion.
func parseLine(line string) (benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return benchmark{}, false
	}
	b := benchmark{Name: f[0]}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
