package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// record is the part of a -metrics line the test reads.
type record struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	State    string `json:"state"`
	Policy   string `json:"policy"`
	TimedOut bool   `json:"timed_out"`
}

// TestRecordOutputsAgree runs the built binary end to end on Table 3 at a
// tiny scale. With a 1 ns run timeout every simulation times out, once: the
// run exits 1, each failed run is simulated once and served from the memo
// when Table 3 asks for it again, every run the manifest lists is in the
// -metrics file as a timeout record under the same 16-hex-digit id, every record's slices are in the
// -spans trace, and Table 3 renders as FAILED, naming the failed runs, and is
// listed in the manifest's experiments_failed. Without the timeout the same
// grid exits 0 with no failed record.
func TestRecordOutputsAgree(t *testing.T) {
	dir, run := experimentsRunner(t)
	path := func(name string) string { return filepath.Join(dir, name) }

	code, out := run("-keep-going", "-run-timeout", "1ns", "-metrics", path("m.jsonl"),
		"-spans", path("s.json"), "-manifest", path("f.json"))
	if code != 1 {
		t.Fatalf("timed-out grid: exit %d, want 1", code)
	}
	recs := readRecords(t, path("m.jsonl"))
	byID := map[string][]record{}
	for _, r := range recs {
		if _, err := strconv.ParseUint(r.ID, 16, 64); err != nil || len(r.ID) != 16 {
			t.Fatalf("record id %q is not 16 hex digits", r.ID)
		}
		byID[r.ID] = append(byID[r.ID], r)
	}

	// A failed run stays in the memo: T3 asks for each of its runs twice,
	// and each is simulated once. A memo hit on it reports the timeout and
	// no policy, as the run's own record does.
	for id, rs := range byID {
		if n := countSimulations(rs); n != 1 {
			t.Fatalf("run %s was simulated %d times, want 1: %+v", id, n, rs)
		}
		for _, r := range rs {
			if r.Policy != "" || !r.TimedOut {
				t.Fatalf("record %+v of a timed-out run: want no policy and timed_out", r)
			}
		}
	}
	if want := fmt.Sprintf(": %d simulations run, %d served from memo", len(byID), len(byID)); !strings.Contains(out, want) {
		t.Fatalf("summary does not report %q:\n%s", want, out)
	}

	var manifest struct {
		ExperimentsFailed []string `json:"experiments_failed"`
		RunsFailed        []record `json:"runs_failed"`
	}
	readJSON(t, path("f.json"), &manifest)
	if len(manifest.RunsFailed) == 0 {
		t.Fatal("manifest lists no failed run")
	}
	if len(manifest.ExperimentsFailed) != 1 || manifest.ExperimentsFailed[0] != "T3" {
		t.Fatalf("manifest experiments_failed = %q, want [T3]", manifest.ExperimentsFailed)
	}
	if !strings.Contains(out, "FAILED: ") || strings.Contains(out, "NaN") {
		t.Fatalf("Table 3 over timed-out runs must render as FAILED, not numbers:\n%s", out)
	}
	for _, f := range manifest.RunsFailed {
		if !strings.Contains(out, "id="+f.ID) {
			t.Fatalf("the FAILED section does not name failed run %s:\n%s", f.ID, out)
		}
		found := false
		for _, r := range byID[f.ID] {
			found = found || (r.State == "timeout" && r.Workload == f.Workload)
		}
		if !found {
			t.Fatalf("failed run %+v has no timeout record in the metrics: %+v", f, byID[f.ID])
		}
	}

	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				ID    string `json:"id"`
				State string `json:"state"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	readJSON(t, path("s.json"), &trace)
	slices := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" {
			slices[e.Args.ID+"/"+e.Args.State] = true
		}
	}
	for _, r := range recs {
		want := []string{"memo-hit"}
		if r.State != "memo-hit" {
			want = []string{"queued", r.State}
		}
		for _, state := range want {
			if !slices[r.ID+"/"+state] {
				t.Fatalf("record %+v has no %q slice in the spans trace", r, state)
			}
		}
	}

	if code, _ := run("-metrics", path("ok.jsonl")); code != 0 {
		t.Fatalf("grid without a timeout: exit %d, want 0", code)
	}
	done := 0
	for _, r := range readRecords(t, path("ok.jsonl")) {
		switch r.State {
		case "done":
			done++
		case "memo-hit":
			if r.Policy == "" || r.TimedOut {
				t.Fatalf("memo hit %+v on a finished run: want its policy and no timeout", r)
			}
		default:
			t.Fatalf("record %+v in a run that should not fail", r)
		}
	}
	if done == 0 {
		t.Fatal("no done record")
	}
}

// TestScaleOutOfRangeRejected: a -scale no workload can be built at (not a
// number, infinite, or past the page bound) exits 1 naming the scale before
// any experiment runs; such scales once ran every experiment on the
// smallest workload.
func TestScaleOutOfRangeRejected(t *testing.T) {
	_, run := experimentsRunner(t)
	for _, v := range []string{"NaN", "-Inf", "1e300"} {
		code, out := run("-scale", v)
		if code != 1 || !strings.Contains(out, "workload: scale ") || strings.Contains(out, "== T3") {
			t.Fatalf("-scale %s: exit %d, output %q; want exit 1 naming the scale and no experiment", v, code, out)
		}
	}
}

// experimentsRunner builds the command into a temporary directory and
// returns that directory and a function that runs the binary on Table 3 at
// a tiny scale plus args (a later flag overrides an earlier one), with its
// exit code and combined output.
func experimentsRunner(t *testing.T) (dir string, run func(args ...string) (int, string)) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the experiments binary")
	}
	dir = t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, func(args ...string) (int, string) {
		cmd := exec.Command(bin, append([]string{"-only", "T3", "-scale", "0.02"}, args...)...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), out.String()
		} else if err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		return 0, out.String()
	}
}

// countSimulations counts the records among one run's that are not memo
// hits: how many times the run was simulated.
func countSimulations(rs []record) int {
	n := 0
	for _, r := range rs {
		if r.State != "memo-hit" {
			n++
		}
	}
	return n
}

func readRecords(t *testing.T, path string) []record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s holds no record", path)
	}
	return recs
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
