package serve

import (
	"fmt"
	"strconv"

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
	// Scale is the workload scale factor (0 = 1.0; see workload.CheckScale).
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
	// Opt is the assembled option set.
	Opt core.Options
	// Spec builds a fresh workload spec (specs hold generator state, so one
	// is built per run).
	Spec func() *workload.Spec
	// Stream mirrors Request.Stream.
	Stream bool
}

// normalize validates r in place and fills in its defaults, so that two
// requests for the same run tend to read the same: policy migrep, config
// ccnuma, metric fc, scale 1, seed 42, and none of the dynamic policies'
// knobs (Trigger, Adaptive, Reclaim, MigWriteShared, NoRemap) under rr or
// ft, which ignore them. Its errors are user errors (HTTP 400) and are all
// the errors Build can return: an unknown workload, policy, config or
// metric, a scale workload.CheckScale rejects, or an invalid fault config.
// It never writes through r.Seed or r.Faults, which the caller may share.
func (r *Request) normalize() error {
	if r.Workload == "" {
		return fmt.Errorf("serve: missing workload")
	}
	if _, err := workload.ByName(r.Workload); err != nil {
		return err
	}
	if r.Scale == 0 {
		r.Scale = 1.0
	}
	if err := workload.CheckScale(r.Scale); err != nil {
		return err
	}
	if r.Seed == nil {
		seed := uint64(defaultSeed)
		r.Seed = &seed
	}
	if r.Config == "" {
		r.Config = "ccnuma"
	}
	cfg, err := machine(r.Config)
	if err != nil {
		return err
	}
	if r.Metric == "" {
		r.Metric = "fc"
	}
	if _, err := metric(r.Metric); err != nil {
		return err
	}
	if r.Policy == "" {
		r.Policy = "migrep"
	}
	switch r.Policy {
	case "rr", "ft":
		r.Trigger, r.Adaptive, r.Reclaim, r.MigWriteShared, r.NoRemap = 0, false, false, false, false
	case "migr", "repl", "migrep":
	default:
		return fmt.Errorf("serve: unknown policy %q", r.Policy)
	}
	if r.Faults != nil {
		return r.Faults.Validate(cfg.Nodes)
	}
	return nil
}

// machine returns the named machine preset.
func machine(name string) (topology.Config, error) {
	switch name {
	case "ccnuma":
		return topology.CCNUMA(), nil
	case "ccnow":
		return topology.CCNOW(), nil
	case "zeronet":
		return topology.ZeroNet(), nil
	}
	return topology.Config{}, fmt.Errorf("serve: unknown config %q", name)
}

// metric returns the named counter information source.
func metric(name string) (policy.Metric, error) {
	switch name {
	case "fc":
		return policy.FullCache, nil
	case "sc":
		return policy.SampledCache, nil
	case "ft":
		return policy.FullTLB, nil
	case "st":
		return policy.SampledTLB, nil
	}
	return 0, fmt.Errorf("serve: unknown metric %q", name)
}

// key renders a normalized request as its result-cache key: every field but
// Stream, with the fault config only when present. Every field is a fixed
// name or a number, so the rendering is injective: equal keys mean equal
// normalized requests, which Build turns into equal runs. Requests whose
// options fingerprint alike may still get distinct keys (a trigger spelled
// out at the workload's default, say); that costs a duplicate cache entry,
// never a wrong answer.
func (r *Request) key() string {
	var buf [160]byte
	b := append(buf[:0], r.Workload...)
	b = append(b, '|')
	b = append(b, r.Policy...)
	b = append(b, '|')
	b = append(b, r.Config...)
	b = append(b, '|')
	b = append(b, r.Metric...)
	b = append(b, '|')
	b = strconv.AppendFloat(b, r.Scale, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendUint(b, *r.Seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, r.DurationNS, 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, uint64(r.Trigger), 10)
	b = append(b, '|')
	for _, on := range [...]bool{r.TrackTLB, r.DirCopy, r.Adaptive, r.Reclaim, r.MigWriteShared, r.NoRemap} {
		if on {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	if f := r.Faults; f != nil {
		b = append(b, "|f"...)
		for _, v := range [...]int64{int64(f.Seed), int64(f.DrainNode), int64(f.DrainAt), int64(f.DelayBy),
			int64(f.AllocFailFrom), int64(f.AllocFailUntil), int64(f.SlowNode)} {
			b = append(b, ',')
			b = strconv.AppendInt(b, v, 10)
		}
		for _, v := range [...]float64{f.DropBatch, f.DelayBatch, f.AllocFail, f.SlowFactor, f.OverheadBudget} {
			b = append(b, ',')
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ',')
		b = strconv.AppendBool(b, f.DeferFailedOps)
	}
	return string(b)
}

// Build validates the request (see normalize) and assembles the simulation
// inputs. Its errors surface before any queue slot or simulation time is
// spent.
func (r Request) Build() (*Job, error) {
	if err := r.normalize(); err != nil {
		return nil, err
	}
	// normalize accepted the workload, config and metric names.
	build, _ := workload.ByName(r.Workload)
	cfg, _ := machine(r.Config)
	cfg.TrackTLBHolders = r.TrackTLB
	cfg.DirCopy = r.DirCopy
	scale, seed := r.Scale, *r.Seed

	opt := core.Options{
		Config:   cfg,
		Seed:     seed,
		Duration: sim.Time(r.DurationNS),
	}
	opt.Metric, _ = metric(r.Metric)

	// The trigger default lives on the spec; build one up front for it (and
	// so that a workload construction panic happens here, not in a run).
	spec0 := build(scale, seed)
	switch r.Policy {
	case "rr":
		opt.RoundRobin = true
	case "migr", "repl", "migrep":
		opt.Dynamic = true
		opt.Params = policy.Base().WithTrigger(spec0.Trigger)
		if r.Trigger > 0 {
			opt.Params = opt.Params.WithTrigger(r.Trigger)
		}
		if r.Policy == "migr" {
			opt.Params = opt.Params.MigrationOnly()
		}
		if r.Policy == "repl" {
			opt.Params = opt.Params.ReplicationOnly()
		}
		opt.Params.MigrateWriteShared = r.MigWriteShared
		opt.Params.DisableRemap = r.NoRemap
		opt.AdaptiveTrigger = r.Adaptive
		opt.ReclaimColdReplicas = r.Reclaim
	}
	if r.Faults != nil {
		opt.Faults = *r.Faults
	}

	return &Job{
		Label:  r.Workload + "/" + r.Policy,
		Opt:    opt,
		Spec:   func() *workload.Spec { return build(scale, seed) },
		Stream: r.Stream,
	}, nil
}
