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

// TestInRejectsForeignCPU runs the built binary on a two-record trace whose
// second record names CPU 200: on an 8-node machine it must exit 1 with an
// error naming the CPU instead of printing a policy comparison, while the
// same trace with the CPU in range still runs.
func TestInRejectsForeignCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tracesim binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tracesim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
	run := func(args ...string) (stdout, stderr string, code int) {
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
