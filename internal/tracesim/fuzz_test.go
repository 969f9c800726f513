package tracesim

import (
	"bytes"
	"slices"
	"testing"

	"ccnuma/internal/trace"
)

// FuzzTrace feeds arbitrary bytes to the foreign-trace path of tracesim -in:
// trace.Read, then Validate for a machine of nodes CPUs (one per node, 1 to
// 8). A trace is either refused there or simulated under every Figure-6
// policy without a panic, and a second simulation gives the same outcomes.
// The seed corpus lives in testdata/fuzz/FuzzTrace.
func FuzzTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		nodes := 1 + int(n%8)
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(nodes); err != nil {
			return
		}
		cfg := DefaultConfig(nodes)
		first := SimulateAll(tr, cfg)
		if again := SimulateAll(tr, cfg); !slices.Equal(first, again) {
			t.Fatalf("%d records on %d nodes: outcomes differ between runs:\n%v\n%v", tr.Len(), nodes, first, again)
		}
	})
}
