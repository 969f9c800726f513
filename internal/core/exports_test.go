package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// writeExports renders every deterministic export of a result: the stats
// summary, the observability events JSONL, and the time-series (CSV, then
// one JSON object per sample).
func writeExports(b *bytes.Buffer, res *Result) error {
	fmt.Fprintf(b, "elapsed=%d steps=%d events=%d\n", res.Elapsed, res.Steps, res.Events)
	fmt.Fprintf(b, "agg=%+v\n", res.Agg)
	for i := range res.PerCPU {
		fmt.Fprintf(b, "cpu%d=%+v\n", i, res.PerCPU[i])
	}
	fmt.Fprintf(b, "vm=%+v alloc=%+v counters=%+v\n", res.VM, res.Alloc, res.Counters)
	fmt.Fprintf(b, "actions=%+v sched=%d local=%.9f remote=%d\n",
		res.Actions, res.SchedMigrations, res.LocalMissFraction, res.AvgRemoteLatency)
	fmt.Fprintf(b, "contention=%+v faults=%+v\n", res.Contention, res.Faults)
	if res.ObsEvents != nil {
		if err := res.ObsEvents.WriteJSONL(b); err != nil {
			return err
		}
	}
	if res.Series != nil {
		if err := res.Series.WriteCSV(b); err != nil {
			return err
		}
		enc := json.NewEncoder(b)
		for _, sm := range res.Series.Samples() {
			if err := enc.Encode(sm); err != nil {
				return err
			}
		}
	}
	return nil
}

// exportCases are the golden workload/option combinations the exports golden
// pins: dynamic policy with every observability surface
// on, a pinned static-placement run, a real paper workload at test scale,
// and a full-chaos fault-injected run.
func exportCases() []struct {
	name string
	spec func() *workload.Spec
	opt  Options
} {
	return []struct {
		name string
		spec func() *workload.Spec
		opt  Options
	}{
		{
			name: "tiny-affinity-dynamic",
			spec: func() *workload.Spec { return tinySpec(workload.SchedAffinity, 60000) },
			opt: Options{Seed: 7, Dynamic: true, CollectEvents: true,
				SampleInterval: sim.Millisecond, DebugChecks: true},
		},
		{
			name: "tiny-pinned-static",
			spec: func() *workload.Spec { return tinySpec(workload.SchedPinned, 60000) },
			opt:  Options{Seed: 3, CollectEvents: true, SampleInterval: sim.Millisecond},
		},
		{
			name: "engineering-scaled",
			spec: func() *workload.Spec {
				build, err := workload.ByName("engineering")
				if err != nil {
					panic(err)
				}
				return build(0.05, 11)
			},
			opt: Options{Seed: 11, Dynamic: true, CollectEvents: true,
				Duration: 8 * sim.Millisecond},
		},
		{
			name: "tiny-chaos",
			spec: func() *workload.Spec { return tinySpec(workload.SchedAffinity, 60000) },
			opt: Options{Seed: 5, Dynamic: true, CollectEvents: true,
				SampleInterval: sim.Millisecond, Faults: chaosConfig()},
		},
	}
}

// exportsGolden holds one "<sha256>  <case>" line per exportCases entry.
const exportsGolden = "testdata/run_exports.sha256"

// recordedExports runs one case with a flight recorder riding along and
// returns the export bundle followed by the recorder dump (events plus
// truncation marker), which follows the dispatch order exactly.
func recordedExports(t *testing.T, spec *workload.Spec, opt Options) []byte {
	t.Helper()
	out, err := exportBundle(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// exportBundle is recordedExports without the testing.T, so concurrent runs
// can report their errors back to the test goroutine.
func exportBundle(spec *workload.Spec, opt Options) ([]byte, error) {
	rec := obs.NewRecorder(128)
	opt.EventSink = rec.Record
	res, err := Run(spec, opt)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := writeExports(&b, res); err != nil {
		return nil, err
	}
	events, dropped := rec.Dump()
	fmt.Fprintf(&b, "recorder dropped=%d\n", dropped)
	for _, e := range events {
		fmt.Fprintf(&b, "%+v\n", e)
	}
	return b.Bytes(), nil
}

// readExportsGolden parses the checked-in digests into case name → digest.
func readExportsGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(exportsGolden))
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[1]] = fields[0]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunExportsGolden is the byte reference for the whole event path: for
// every golden case the SHA-256 of the export bundle (stats, events JSONL,
// time-series CSV and JSONL, flight-recorder dump) must match the checked-in
// digest. Any change to dispatch order, scheduling, or accounting shows up
// here. Run with -update to rewrite the digests when a change is intended.
func TestRunExportsGolden(t *testing.T) {
	want := map[string]string{}
	if !*update {
		want = readExportsGolden(t)
	}
	var golden bytes.Buffer
	for _, tc := range exportCases() {
		sum := sha256.Sum256(recordedExports(t, tc.spec(), tc.opt))
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&golden, "%s  %s\n", got, tc.name)
		if !*update && got != want[tc.name] {
			t.Errorf("%s: exports digest %s, golden %q; "+
				"run go test ./internal/core -run TestRunExportsGolden -update if the change is intended",
				tc.name, got, want[tc.name])
		}
	}
	if *update {
		if err := os.WriteFile(filepath.FromSlash(exportsGolden), golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardNeutrality is the cross-run determinism hammer. Every run is one
// serial event engine; the host concurrency that remains is several runs
// executing side by side in one process, as experiments -j workers and
// numasimd run slots do. For every golden case, two copies run concurrently
// with each other and with the other cases, and each must hash to the
// checked-in digest: no run may observe another through shared package
// state. make ci runs it under -race.
func TestShardNeutrality(t *testing.T) {
	want := readExportsGolden(t)
	for _, tc := range exportCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const copies = 2
			sums := make([]string, copies)
			errs := make([]error, copies)
			var wg sync.WaitGroup
			for i := 0; i < copies; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, err := exportBundle(tc.spec(), tc.opt)
					sum := sha256.Sum256(out)
					sums[i], errs[i] = hex.EncodeToString(sum[:]), err
				}(i)
			}
			wg.Wait()
			for i := range sums {
				if errs[i] != nil {
					t.Fatalf("copy %d: %v", i, errs[i])
				}
				if sums[i] != want[tc.name] {
					t.Errorf("copy %d: exports digest %s under concurrent runs, golden %q",
						i, sums[i], want[tc.name])
				}
			}
		})
	}
}
