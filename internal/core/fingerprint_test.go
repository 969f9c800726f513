package core

import (
	"reflect"
	"strings"
	"testing"

	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/topology"
)

// The options fingerprint keys the report layer's memo cache; any field
// whose change can alter a simulation must change the fingerprint, or the
// cache silently serves the wrong Result. The hand-rolled key it replaced
// omitted Sharing/Write/Migrate/ResetInterval.
func TestFingerprintDistinguishesEveryOptionField(t *testing.T) {
	base := Options{Dynamic: true, Params: policy.Base()}
	variants := map[string]func(*Options){
		"sharing":        func(o *Options) { o.Params.Sharing++ },
		"write":          func(o *Options) { o.Params.Write++ },
		"migrate":        func(o *Options) { o.Params.Migrate++ },
		"reset-interval": func(o *Options) { o.Params.ResetInterval += sim.Millisecond },
		"trigger":        func(o *Options) { o.Params.Trigger++ },
		"mig-wshared":    func(o *Options) { o.Params.MigrateWriteShared = true },
		"no-remap":       func(o *Options) { o.Params.DisableRemap = true },
		"dynamic":        func(o *Options) { o.Dynamic = false },
		"config":         func(o *Options) { o.Config = topology.CCNOW() },
		"round-robin":    func(o *Options) { o.RoundRobin = true },
		"metric":         func(o *Options) { o.Metric = policy.SampledCache },
		"seed":           func(o *Options) { o.Seed++ },
		"duration":       func(o *Options) { o.Duration = sim.Second },
		"collect-trace":  func(o *Options) { o.CollectTrace = true },
		"code-ft":        func(o *Options) { o.ReplicateCodeOnFirstTouch = true },
		"adaptive":       func(o *Options) { o.AdaptiveTrigger = true },
		"reclaim":        func(o *Options) { o.ReclaimColdReplicas = true },
		"fault-seed":     func(o *Options) { o.Faults.Seed = 7 },
		"fault-drain":    func(o *Options) { o.Faults.DrainNode = 2; o.Faults.DrainAt = sim.Millisecond },
		"fault-drop":     func(o *Options) { o.Faults.DropBatch = 0.1 },
		"fault-alloc":    func(o *Options) { o.Faults.AllocFail = 0.1 },
		"fault-slow":     func(o *Options) { o.Faults.SlowNode = 1; o.Faults.SlowFactor = 2 },
		"fault-defer":    func(o *Options) { o.Faults.DeferFailedOps = true },
		"fault-budget":   func(o *Options) { o.Faults.OverheadBudget = 0.1 },
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, mutate := range variants {
		o := base
		mutate(&o)
		fp := o.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q has the same fingerprint as %q", name, prev)
		}
		seen[fp] = name
	}
}

func TestFingerprintStableForEqualOptions(t *testing.T) {
	a := Options{Dynamic: true, Params: policy.Base(), Config: topology.CCNUMA()}
	b := Options{Dynamic: true, Params: policy.Base(), Config: topology.CCNUMA()}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal options fingerprint differently:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
}

// TestObservationAbsentFromFingerprint pins that the flight recorder stays
// retired as an option: the harness arms it as one more EventSink output, so
// no recorder pointer can reach Options or split a memo key.
func TestObservationAbsentFromFingerprint(t *testing.T) {
	retiredKnobAbsent(t, "Recorder")
}

// retiredKnobAbsent checks that a retired execution-only knob (an engine
// knob of the retired intra-run concurrency layer, or an observation hook
// now carried by EventSink) is neither an Options field nor part of the
// fingerprint text that memo and coalescing keys are built from.
func retiredKnobAbsent(t *testing.T, field string) {
	t.Helper()
	if _, ok := reflect.TypeOf(Options{}).FieldByName(field); ok {
		t.Fatalf("Options.%s is back, but it was retired and nothing reads it", field)
	}
	if fp := (Options{Seed: 9, Dynamic: true}).Fingerprint(); strings.Contains(fp, field+":") {
		t.Fatalf("the fingerprint names %s:\n%s", field, fp)
	}
}

// TestShardsAbsentFromFingerprint pins that the shard count stays retired:
// every run goes through the single-heap engine, so no shard setting can
// reach Options or split a memo key.
func TestShardsAbsentFromFingerprint(t *testing.T) {
	retiredKnobAbsent(t, "Shards")
}

// TestPlacementAndQuantumAbsentFromFingerprint pins two knobs no caller set:
// the placer is chosen by RoundRobin (a function value would format as a
// code address, stable only within one process), and the scheduling quantum
// is a constant of the engine.
func TestPlacementAndQuantumAbsentFromFingerprint(t *testing.T) {
	retiredKnobAbsent(t, "Placement")
	retiredKnobAbsent(t, "Quantum")
}

// TestWorkersAbsentFromFingerprint pins the same for the per-run worker
// count: parallelism lives across runs (experiments -j, numasimd slots),
// never inside one, so no worker setting can reach Options or a memo key.
func TestWorkersAbsentFromFingerprint(t *testing.T) {
	retiredKnobAbsent(t, "Workers")
}
