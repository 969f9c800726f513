package fault

import (
	"math"
	"testing"

	"ccnuma/internal/sim"
)

// FuzzFaultConfig feeds arbitrary numbers to Config.Validate, the check
// numasimd and the CLIs run on a fault config before building a machine. It
// must never panic, and a config it accepts holds only finite fractions in
// their documented ranges: probabilities in [0, 1], SlowFactor 0 or in
// [1, MaxSlowFactor], OverheadBudget 0 or in (0, 1). The seed corpus lives
// in testdata/fuzz/FuzzFaultConfig.
func FuzzFaultConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, drainNode int, drainAt int64, drop, delay float64, delayBy int64,
		allocFail float64, from, until int64, slowNode int, slowFactor float64, deferOps bool,
		budget float64, nodes int) {
		c := Config{Seed: seed, DrainNode: drainNode, DrainAt: sim.Time(drainAt),
			DropBatch: drop, DelayBatch: delay, DelayBy: sim.Time(delayBy),
			AllocFail: allocFail, AllocFailFrom: sim.Time(from), AllocFailUntil: sim.Time(until),
			SlowNode: slowNode, SlowFactor: slowFactor, DeferFailedOps: deferOps, OverheadBudget: budget}
		if c.Validate(nodes) != nil {
			return
		}
		for _, p := range []float64{c.DropBatch, c.DelayBatch, c.AllocFail} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("accepted %+v: probability %v outside [0, 1]", c, p)
			}
		}
		if s := c.SlowFactor; math.IsNaN(s) || s != 0 && (s < 1 || s > MaxSlowFactor) {
			t.Fatalf("accepted %+v: SlowFactor %v", c, s)
		}
		if b := c.OverheadBudget; math.IsNaN(b) || b != 0 && (b <= 0 || b >= 1) {
			t.Fatalf("accepted %+v: OverheadBudget %v", c, b)
		}
	})
}
