package fault

import (
	"math"
	"testing"

	"ccnuma/internal/sim"
)

func TestZeroConfigDisabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config reports enabled")
	}
	// DrainNode alone (no DrainAt) must not enable: node 0 is a valid node id,
	// so the zero value of DrainNode cannot mean "drain node 0".
	if (Config{DrainNode: 3}).Enabled() {
		t.Fatal("DrainNode without DrainAt reports enabled")
	}
	if (Config{SlowNode: 2}).Enabled() {
		t.Fatal("SlowNode without SlowFactor reports enabled")
	}
	for _, c := range []Config{
		{DrainAt: sim.Millisecond},
		{DropBatch: 0.1},
		{DelayBatch: 0.1},
		{AllocFail: 0.1},
		{SlowFactor: 2},
		{DeferFailedOps: true},
		{OverheadBudget: 0.2},
	} {
		if !c.Enabled() {
			t.Fatalf("%+v reports disabled", c)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := []Config{
		{},
		{DrainNode: 3, DrainAt: sim.Millisecond},
		{SlowNode: 0, SlowFactor: 4},
		{SlowNode: 0, SlowFactor: MaxSlowFactor},
		{AllocFail: 0.5, AllocFailFrom: sim.Millisecond, AllocFailUntil: 2 * sim.Millisecond},
		{OverheadBudget: 0.25},
	}
	for _, c := range ok {
		if err := c.Validate(4); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{DropBatch: 1.5},
		{AllocFail: -0.1},
		{DrainNode: 4, DrainAt: sim.Millisecond},
		{DrainNode: -1, DrainAt: sim.Millisecond},
		{SlowNode: 9, SlowFactor: 2},
		{SlowFactor: 0.5},
		{OverheadBudget: 1.5},
		{AllocFail: 0.5, AllocFailFrom: 2 * sim.Millisecond, AllocFailUntil: sim.Millisecond},
		// Non-finite values pass every comparison, so each float field
		// rejects them outright.
		{DropBatch: math.NaN()},
		{DelayBatch: math.NaN()},
		{AllocFail: math.NaN()},
		{SlowNode: 1, SlowFactor: math.NaN()},
		{SlowNode: 1, SlowFactor: math.Inf(1)},
		{OverheadBudget: math.NaN()},
		{OverheadBudget: math.Inf(-1)},
		// A factor past the cap would overflow sim.Time in
		// ExtraRemoteLatency and schedule events in the past.
		{SlowNode: 1, SlowFactor: MaxSlowFactor + 1},
		{SlowNode: 1, SlowFactor: 1e300},
	}
	for _, c := range bad {
		if err := c.Validate(4); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", c)
		}
	}
}

func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	if in.On() {
		t.Fatal("nil injector reports on")
	}
	if in.AllocShouldFail(0) {
		t.Fatal("nil injector fails allocations")
	}
	if drop, delay := in.BatchFate(); drop || delay != 0 {
		t.Fatal("nil injector touches batches")
	}
	if in.ExtraRemoteLatency(0, 1, sim.Microsecond) != 0 {
		t.Fatal("nil injector slows misses")
	}
	in.NoteDrain(0, 3)
	if s := in.Stats(); s.DrainedNode != -1 {
		t.Fatalf("nil injector stats = %+v, want DrainedNode -1", s)
	}
}

// Two injectors with the same config and seed must draw identical fault
// sequences — chaos runs are as reproducible as clean ones.
func TestDeterministicSequence(t *testing.T) {
	cfg := Config{DropBatch: 0.3, DelayBatch: 0.3, AllocFail: 0.4}
	a := New(cfg, 42, nil)
	b := New(cfg, 42, nil)
	for i := 0; i < 500; i++ {
		ad, adl := a.BatchFate()
		bd, bdl := b.BatchFate()
		if ad != bd || adl != bdl {
			t.Fatalf("batch fate diverged at draw %d: (%v,%v) vs (%v,%v)", i, ad, adl, bd, bdl)
		}
		if a.AllocShouldFail(0) != b.AllocShouldFail(0) {
			t.Fatalf("alloc fate diverged at draw %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().BatchesDropped == 0 || a.Stats().AllocFailures == 0 {
		t.Fatalf("faults never fired: %+v", a.Stats())
	}
}

func TestExplicitSeedOverridesRunSeed(t *testing.T) {
	cfg := Config{DropBatch: 0.5, Seed: 7}
	a := New(cfg, 1, nil)
	b := New(cfg, 99, nil)
	for i := 0; i < 200; i++ {
		ad, _ := a.BatchFate()
		bd, _ := b.BatchFate()
		if ad != bd {
			t.Fatalf("explicit seed did not pin the stream (draw %d)", i)
		}
	}
}

func TestAllocFailWindow(t *testing.T) {
	now := sim.Time(0)
	in := New(Config{AllocFail: 1, AllocFailFrom: 10, AllocFailUntil: 20},
		42, func() sim.Time { return now })
	for _, tc := range []struct {
		at   sim.Time
		want bool
	}{{5, false}, {10, true}, {19, true}, {20, false}, {100, false}} {
		now = tc.at
		if got := in.AllocShouldFail(0); got != tc.want {
			t.Errorf("AllocShouldFail at t=%v = %v, want %v", tc.at, got, tc.want)
		}
	}
	if in.Stats().AllocFailures != 2 {
		t.Fatalf("counted %d failures, want 2", in.Stats().AllocFailures)
	}

	// A zero AllocFailUntil extends the window to the end of the run.
	open := New(Config{AllocFail: 1, AllocFailFrom: 10}, 42, func() sim.Time { return now })
	now = 1 << 40
	if !open.AllocShouldFail(0) {
		t.Fatal("open-ended window closed early")
	}
}

func TestExtraRemoteLatency(t *testing.T) {
	in := New(Config{SlowNode: 2, SlowFactor: 4}, 42, nil)
	base := 10 * sim.Microsecond
	if got := in.ExtraRemoteLatency(0, 2, base); got != 3*base {
		t.Fatalf("to slow node: extra = %v, want %v", got, 3*base)
	}
	if got := in.ExtraRemoteLatency(2, 0, base); got != 3*base {
		t.Fatalf("from slow node: extra = %v, want %v", got, 3*base)
	}
	if got := in.ExtraRemoteLatency(0, 1, base); got != 0 {
		t.Fatalf("unrelated link slowed by %v", got)
	}
	if in.Stats().SlowedMisses != 2 {
		t.Fatalf("counted %d slowed misses, want 2", in.Stats().SlowedMisses)
	}
}

// Draws happen only for configured faults: an injector with just DropBatch set
// must leave the alloc path untouched, so adding one fault never perturbs the
// sequence another fault sees.
func TestStreamIsolation(t *testing.T) {
	dropOnly := New(Config{DropBatch: 0.5}, 42, nil)
	both := New(Config{DropBatch: 0.5, AllocFail: 0.5}, 42, nil)
	for i := 0; i < 100; i++ {
		if dropOnly.AllocShouldFail(0) {
			t.Fatal("unconfigured alloc fault fired")
		}
		// Interleave alloc probes with batch draws: the drop-only injector's
		// batch stream must not shift.
		d1, _ := dropOnly.BatchFate()
		_ = both.AllocShouldFail(0)
		d2, _ := both.BatchFate()
		_ = d1
		_ = d2
	}
	if dropOnly.Stats().AllocFailures != 0 {
		t.Fatal("drop-only injector counted alloc failures")
	}
}
