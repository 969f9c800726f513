package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ccnuma/internal/mem"
	"ccnuma/internal/trace"
)

// buildTracesim builds the command into a temporary directory.
func buildTracesim(t *testing.T) (dir, bin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the tracesim binary")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "tracesim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}

// runBin runs bin and returns its output streams and exit code.
func runBin(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestTriggerOutOfRangeRejected: the policy counters are 16-bit, so a
// -trigger above 65535 must exit 1 naming the flag instead of wrapping into
// a small threshold (65537 once ran as trigger 1).
func TestTriggerOutOfRangeRejected(t *testing.T) {
	_, bin := buildTracesim(t)
	stdout, stderr, code := runBin(t, bin, "-workload", "engineering", "-scale", "0.02", "-trigger", "65537")
	if code != 1 || stdout != "" {
		t.Fatalf("-trigger 65537: exit %d, stdout %q; want exit 1 and no comparison", code, stdout)
	}
	if !strings.Contains(stderr, "-trigger 65537 out of range (maximum 65535)") {
		t.Fatalf("-trigger 65537: stderr %q does not name the flag and its bound", stderr)
	}
}

// TestScaleOutOfRangeRejected: a -scale no workload can be built at (not a
// number, infinite, or past the page bound) must exit 1 naming the scale
// instead of simulating the smallest workload.
func TestScaleOutOfRangeRejected(t *testing.T) {
	_, bin := buildTracesim(t)
	for _, v := range []string{"NaN", "-Inf", "1e300"} {
		stdout, stderr, code := runBin(t, bin, "-workload", "engineering", "-scale", v)
		if code != 1 || stdout != "" {
			t.Fatalf("-scale %s: exit %d, stdout %q; want exit 1 and no comparison", v, code, stdout)
		}
		if !strings.Contains(stderr, "workload: scale ") {
			t.Fatalf("-scale %s: stderr %q does not name the scale", v, stderr)
		}
	}
}

// TestInRejectsForeignCPU runs the built binary on a two-record trace whose
// second record names CPU 200: on an 8-node machine it must exit 1 with an
// error naming the CPU instead of printing a policy comparison, while the
// same trace with the CPU in range still runs.
func TestInRejectsForeignCPU(t *testing.T) {
	dir, bin := buildTracesim(t)
	write := func(name string, cpu mem.CPUID) string {
		tr := &trace.Trace{}
		tr.Append(trace.Record{At: 1, Page: 3, CPU: 1, Kind: mem.DataRead})
		tr.Append(trace.Record{At: 2, Page: 3, CPU: cpu, Kind: mem.DataRead})
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(args ...string) (string, string, int) { return runBin(t, bin, args...) }

	stdout, stderr, code := run("-in", write("foreign.trc", 200), "-nodes", "8")
	if code != 1 || stdout != "" {
		t.Fatalf("CPU 200 on 8 nodes: exit %d, stdout %q; want exit 1 and no comparison", code, stdout)
	}
	if !strings.Contains(stderr, "CPU 200") || !strings.Contains(stderr, "8 CPUs") {
		t.Fatalf("CPU 200 on 8 nodes: stderr %q does not name the CPU and the machine", stderr)
	}
	if stdout, stderr, code := run("-in", write("local.trc", 7), "-nodes", "8"); code != 0 ||
		!strings.Contains(stdout, "policy comparison") {
		t.Fatalf("CPU 7 on 8 nodes: exit %d, stderr %q; want a comparison", code, stderr)
	}
	if _, stderr, code := run("-in", write("any.trc", 1), "-nodes", "17"); code != 1 ||
		!strings.Contains(stderr, "-nodes 17 out of range") {
		t.Fatalf("-nodes 17: exit %d, stderr %q; want exit 1 naming the flag", code, stderr)
	}
}
