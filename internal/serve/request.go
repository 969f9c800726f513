package serve

import (
	"fmt"

	"ccnuma/internal/core"
	"ccnuma/internal/fault"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/topology"
	"ccnuma/internal/workload"
)

// Request is the wire shape of one simulation query: the same knobs numasim
// exposes as flags, so a server response can be byte-diffed against the CLI.
// cmd/numasim builds its options through this type too — one option-building
// path means the byte-identity between the two is by construction, not by
// parallel maintenance.
type Request struct {
	// Workload names the paper workload to run (workload.ByName).
	Workload string `json:"workload"`
	// Policy is the placement policy: rr|ft|migr|repl|migrep. Empty means
	// migrep, the CLI default.
	Policy string `json:"policy,omitempty"`
	// Config is the machine preset: ccnuma|ccnow|zeronet (empty = ccnuma).
	Config string `json:"config,omitempty"`
	// Scale is the workload scale factor (0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Seed is the run's random seed. Absent means 42, the CLI default; the
	// pointer keeps an explicit seed of 0 distinct from "use the default".
	Seed *uint64 `json:"seed,omitempty"`
	// DurationNS overrides the workload's run length (simulated time).
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Trigger overrides the policy trigger threshold (0 = workload default).
	Trigger uint16 `json:"trigger,omitempty"`
	// Metric is the counter information source: fc|sc|ft|st (empty = fc).
	Metric string `json:"metric,omitempty"`
	// TrackTLB and DirCopy are the machine-model ablations (-track-tlb,
	// -dir-copy).
	TrackTLB bool `json:"track_tlb,omitempty"`
	DirCopy  bool `json:"dir_copy,omitempty"`
	// Adaptive, Reclaim, MigWriteShared, NoRemap are the policy extensions;
	// they apply only to the dynamic policies, as in the CLI.
	Adaptive       bool `json:"adaptive,omitempty"`
	Reclaim        bool `json:"reclaim,omitempty"`
	MigWriteShared bool `json:"mig_wshared,omitempty"`
	NoRemap        bool `json:"no_remap,omitempty"`
	// Faults carries a deterministic fault-injection config: chaos as a
	// service, reproducible for a fixed seed like everything else.
	Faults *fault.Config `json:"faults,omitempty"`
	// Stream asks for an NDJSON progress stream (the run's typed obs events
	// as they happen, then a final result or error line) instead of a single
	// JSON document. Streamed responses bypass the result cache.
	Stream bool `json:"stream,omitempty"`
}

// defaultSeed matches the numasim -seed default.
const defaultSeed = 42

// Job is a validated, executable simulation request.
type Job struct {
	// Label names the run in logs and failure manifests.
	Label string
	// Key is the content address for the result cache: workload identity
	// (name, scale — spec properties outside core.Options) plus the full
	// options fingerprint.
	Key string
	// Opt is the assembled option set.
	Opt core.Options
	// Spec builds a fresh workload spec (specs hold generator state, so one
	// is built per attempt).
	Spec func() *workload.Spec
	// Stream mirrors Request.Stream.
	Stream bool
}

// Build validates the request and assembles the simulation inputs. Errors
// are user errors (HTTP 400): an unknown workload, policy, config, or
// metric, a bad scale, or an invalid fault config surface here, before any
// queue slot or simulation time is spent.
func (r Request) Build() (*Job, error) {
	if r.Workload == "" {
		return nil, fmt.Errorf("serve: missing workload")
	}
	build, err := workload.ByName(r.Workload)
	if err != nil {
		return nil, err
	}
	scale := r.Scale
	if scale == 0 {
		scale = 1.0
	}
	if scale < 0 {
		return nil, fmt.Errorf("serve: negative scale %v", scale)
	}
	seed := uint64(defaultSeed)
	if r.Seed != nil {
		seed = *r.Seed
	}

	var cfg topology.Config
	switch r.Config {
	case "", "ccnuma":
		cfg = topology.CCNUMA()
	case "ccnow":
		cfg = topology.CCNOW()
	case "zeronet":
		cfg = topology.ZeroNet()
	default:
		return nil, fmt.Errorf("serve: unknown config %q", r.Config)
	}
	cfg.TrackTLBHolders = r.TrackTLB
	cfg.DirCopy = r.DirCopy

	opt := core.Options{
		Config:   cfg,
		Seed:     seed,
		Duration: sim.Time(r.DurationNS),
	}
	switch r.Metric {
	case "", "fc":
		opt.Metric = policy.FullCache
	case "sc":
		opt.Metric = policy.SampledCache
	case "ft":
		opt.Metric = policy.FullTLB
	case "st":
		opt.Metric = policy.SampledTLB
	default:
		return nil, fmt.Errorf("serve: unknown metric %q", r.Metric)
	}

	// The trigger default lives on the spec; build one up front for it (and
	// to surface workload construction panics as Build-time errors, not
	// run-time failures).
	spec0 := build(scale, seed)
	pol := r.Policy
	if pol == "" {
		pol = "migrep"
	}
	switch pol {
	case "rr":
		opt.RoundRobin = true
	case "ft":
	case "migr", "repl", "migrep":
		opt.Dynamic = true
		opt.Params = policy.Base().WithTrigger(spec0.Trigger)
		if r.Trigger > 0 {
			opt.Params = opt.Params.WithTrigger(r.Trigger)
		}
		if pol == "migr" {
			opt.Params = opt.Params.MigrationOnly()
		}
		if pol == "repl" {
			opt.Params = opt.Params.ReplicationOnly()
		}
		opt.Params.MigrateWriteShared = r.MigWriteShared
		opt.Params.DisableRemap = r.NoRemap
		opt.AdaptiveTrigger = r.Adaptive
		opt.ReclaimColdReplicas = r.Reclaim
	default:
		return nil, fmt.Errorf("serve: unknown policy %q", pol)
	}
	if r.Faults != nil {
		opt.Faults = *r.Faults
		if err := opt.Faults.Validate(cfg.Nodes); err != nil {
			return nil, err
		}
	}

	return &Job{
		Label:  r.Workload + "/" + pol,
		Key:    fmt.Sprintf("%s|%g|%s", r.Workload, scale, opt.Fingerprint()),
		Opt:    opt,
		Spec:   func() *workload.Spec { return build(scale, seed) },
		Stream: r.Stream,
	}, nil
}
