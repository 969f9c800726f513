package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// numasimRunner builds the command into a temporary directory and returns a
// function that runs it on a tiny engineering run plus args (a later flag
// overrides an earlier one), with its output streams and exit code.
func numasimRunner(t *testing.T) func(args ...string) (stdout, stderr string, code int) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the numasim binary")
	}
	bin := filepath.Join(t.TempDir(), "numasim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(args ...string) (stdout, stderr string, code int) {
		cmd := exec.Command(bin, append([]string{"-workload", "engineering",
			"-scale", "0.01", "-duration", "1ms", "-json"}, args...)...)
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
}

// TestTriggerOutOfRangeRejected runs the built binary: a -trigger above the
// 16-bit counter range must exit 1 with an error naming the flag instead of
// running with the value truncated to 16 bits, while the largest
// representable value still runs.
func TestTriggerOutOfRangeRejected(t *testing.T) {
	run := numasimRunner(t)
	for _, v := range []string{"65536", "65537"} {
		stdout, stderr, code := run("-trigger", v)
		if code != 1 || stdout != "" {
			t.Fatalf("-trigger %s: exit %d, stdout %q; want exit 1 and no result", v, code, stdout)
		}
		if !strings.Contains(stderr, "-trigger "+v+" out of range") {
			t.Fatalf("-trigger %s: stderr %q does not name the bad value", v, stderr)
		}
	}
	if stdout, stderr, code := run("-trigger", "65535"); code != 0 || stdout == "" {
		t.Fatalf("-trigger 65535: exit %d, stderr %q; want a result", code, stderr)
	}
	// The retired -trace alias is an unknown flag now.
	if _, _, code := run("-trace", "out.trc"); code != 2 {
		t.Fatalf("-trace: exit %d, want the flag package's 2 for an unknown flag", code)
	}
}

// TestScaleOutOfRangeRejected: a scale that is not a number, infinite, or
// too large to size any region must exit 1 with an error naming the scale.
// Each once ran as the smallest workload (every region one page) and
// printed its result.
func TestScaleOutOfRangeRejected(t *testing.T) {
	run := numasimRunner(t)
	for v, shown := range map[string]string{"NaN": "NaN", "+Inf": "+Inf", "-Inf": "-Inf", "1e300": "1e+300"} {
		stdout, stderr, code := run("-scale", v)
		if code != 1 || stdout != "" {
			t.Fatalf("-scale %s: exit %d, stdout %q; want exit 1 and no result", v, code, stdout)
		}
		if !strings.Contains(stderr, "scale "+shown+" out of range") {
			t.Fatalf("-scale %s: stderr %q does not name the scale", v, stderr)
		}
	}
}
