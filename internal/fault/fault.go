// Package fault is the simulator's chaos layer: a deterministic, seed-driven
// injector of the hostile conditions the paper's policies must survive —
// a node's memory draining away mid-run, hot-page interrupts lost or delayed
// on their way from the directory to the pager, transient allocation
// failures, and a degraded interconnect link.
//
// The injector owns its own sim.Rand stream seeded independently of every
// other stochastic component, so enabling a fault never perturbs workload,
// scheduler, or placement randomness — and with the zero Config the injector
// is never built at all, leaving runs byte-identical to a fault-free build.
// For a fixed Config and seed the injected fault sequence is itself
// deterministic, so chaos runs are as reproducible as clean ones.
package fault

import (
	"fmt"
	"math"

	"ccnuma/internal/mem"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// Config selects which faults to inject. It is a pure value type (no
// functions, no pointers) so core.Options.Fingerprint covers every field and
// memoized runs with different fault settings never collide. The zero value
// disables everything. The JSON tags are the wire shape numasimd requests
// use to carry a fault config (deterministic chaos as a service); omitempty
// keeps a fault-free request's body free of fault noise.
type Config struct {
	// Seed seeds the injector's private RNG stream; 0 derives one from the
	// run seed.
	Seed uint64 `json:"seed,omitempty"`

	// DrainNode's memory is taken offline at DrainAt: new allocations on the
	// node fail, AllocAnywhere skips it, and every replica resident there is
	// evicted. A drain happens only when DrainAt > 0.
	DrainNode int      `json:"drain_node,omitempty"`
	DrainAt   sim.Time `json:"drain_at,omitempty"`

	// DropBatch is the probability a hot-page interrupt batch is lost before
	// reaching the pager (the pages stay hot and re-trigger later).
	DropBatch float64 `json:"drop_batch,omitempty"`
	// DelayBatch is the probability a batch is delayed by DelayBy instead of
	// being delivered immediately (0 DelayBy uses a 200us default).
	DelayBatch float64  `json:"delay_batch,omitempty"`
	DelayBy    sim.Time `json:"delay_by,omitempty"`

	// AllocFail is the probability one allocation attempt fails transiently,
	// inside the window [AllocFailFrom, AllocFailUntil); a zero AllocFailUntil
	// extends the window to the end of the run.
	AllocFail      float64  `json:"alloc_fail,omitempty"`
	AllocFailFrom  sim.Time `json:"alloc_fail_from,omitempty"`
	AllocFailUntil sim.Time `json:"alloc_fail_until,omitempty"`

	// SlowFactor > 1 multiplies the latency of remote misses to or from
	// SlowNode (a degraded interconnect link); at most MaxSlowFactor.
	SlowNode   int     `json:"slow_node,omitempty"`
	SlowFactor float64 `json:"slow_factor,omitempty"`

	// DeferFailedOps enables the pager's graceful-degradation response:
	// migrations/replications that fail allocation enter a bounded deferral
	// queue and retry with exponential backoff instead of being dropped.
	DeferFailedOps bool `json:"defer_failed_ops,omitempty"`
	// OverheadBudget, when positive, throttles pager work: hot-page batches
	// arriving while the pager's share of CPU time exceeds this fraction are
	// shed cheaply (the paper's kernel-overhead concern).
	OverheadBudget float64 `json:"overhead_budget,omitempty"`
}

// MaxSlowFactor caps Config.SlowFactor. A link a thousand times slower is
// already a dead link to the policies, and the cap keeps the extra latency
// lat×(factor−1) of ExtraRemoteLatency far inside sim.Time: only a base
// latency above 100 days could overflow it.
const MaxSlowFactor = 1000

// Enabled reports whether any fault or degradation response is configured.
// core builds an Injector only when this is true.
func (c Config) Enabled() bool {
	return c.DrainAt > 0 || c.DropBatch > 0 || c.DelayBatch > 0 ||
		c.AllocFail > 0 || c.SlowFactor > 1 ||
		c.DeferFailedOps || c.OverheadBudget > 0
}

// Validate checks the configuration against the machine's node count.
func (c Config) Validate(nodes int) error {
	for _, p := range []struct {
		name string
		v    float64
		prob bool
	}{{"DropBatch", c.DropBatch, true}, {"DelayBatch", c.DelayBatch, true}, {"AllocFail", c.AllocFail, true},
		{"SlowFactor", c.SlowFactor, false}, {"OverheadBudget", c.OverheadBudget, false}} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("fault: %s = %v is not a finite number", p.name, p.v)
		}
		if p.prob && (p.v < 0 || p.v > 1) {
			return fmt.Errorf("fault: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.DrainAt > 0 && (c.DrainNode < 0 || c.DrainNode >= nodes) {
		return fmt.Errorf("fault: DrainNode %d outside the machine's %d nodes", c.DrainNode, nodes)
	}
	if c.SlowFactor > 1 && (c.SlowNode < 0 || c.SlowNode >= nodes) {
		return fmt.Errorf("fault: SlowNode %d outside the machine's %d nodes", c.SlowNode, nodes)
	}
	if c.SlowFactor != 0 && c.SlowFactor < 1 {
		return fmt.Errorf("fault: SlowFactor %v < 1 would speed the link up", c.SlowFactor)
	}
	if c.SlowFactor > MaxSlowFactor {
		return fmt.Errorf("fault: SlowFactor %v above the cap of %d", c.SlowFactor, MaxSlowFactor)
	}
	if c.OverheadBudget != 0 && (c.OverheadBudget < 0 || c.OverheadBudget >= 1) {
		return fmt.Errorf("fault: OverheadBudget %v outside (0, 1)", c.OverheadBudget)
	}
	if c.AllocFailUntil != 0 && c.AllocFailUntil < c.AllocFailFrom {
		return fmt.Errorf("fault: AllocFail window [%v, %v) is empty", c.AllocFailFrom, c.AllocFailUntil)
	}
	return nil
}

// Stats counts what the injector actually did during a run.
type Stats struct {
	// AllocFailures is the number of allocation attempts failed transiently.
	AllocFailures uint64 `json:"alloc_failures"`
	// BatchesDropped / BatchesDelayed count hot-page interrupt batches lost
	// or postponed on the way to the pager.
	BatchesDropped uint64 `json:"batches_dropped"`
	BatchesDelayed uint64 `json:"batches_delayed"`
	// SlowedMisses counts remote misses inflated by the degraded link.
	SlowedMisses uint64 `json:"slowed_misses"`
	// DrainedNode is the node taken offline (-1 when no drain ran) and
	// ReplicasEvicted how many replicas the drain sweep reclaimed there.
	DrainedNode     int `json:"drained_node"`
	ReplicasEvicted int `json:"replicas_evicted"`
}

// Injector draws fault decisions from its private RNG stream. The nil
// *Injector is the disabled state: On reports false and every hook is inert.
type Injector struct {
	// Obs, when enabled, receives a KindFaultInjected event for each fault
	// that fires (Action names the fault).
	Obs *obs.Tracer

	cfg   Config
	rng   *sim.Rand
	clock func() sim.Time
	stats Stats
}

// New builds an injector for the given configuration. runSeed derives the
// private stream when cfg.Seed is zero; clock supplies the current virtual
// time (the AllocFail window needs it — the allocator itself is clockless).
func New(cfg Config, runSeed uint64, clock func() sim.Time) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		// An arbitrary odd multiplier keeps the derived stream disjoint from
		// the workload (seed^0xabcdef) and respawn (seed*2654435761+1) streams.
		seed = runSeed*0x9e3779b97f4a7c15 + 0xfa01
	}
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	in := &Injector{cfg: cfg, rng: sim.NewRand(seed), clock: clock}
	in.stats.DrainedNode = -1
	return in
}

// On reports whether the injector is active. Safe on nil.
func (in *Injector) On() bool { return in != nil }

// Config returns the active configuration (zero value on nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Stats returns what was injected so far (zero value on nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{DrainedNode: -1}
	}
	return in.stats
}

// AllocShouldFail is the allocator's fault hook: it reports whether this
// allocation attempt on node n fails transiently. The RNG is drawn only when
// the fault is configured and the clock is inside the failure window, so an
// unrelated fault (say, batch drops) sees the same stream with or without
// AllocFail configured runs elsewhere.
func (in *Injector) AllocShouldFail(n mem.NodeID) bool {
	if in == nil || in.cfg.AllocFail <= 0 {
		return false
	}
	now := in.clock()
	if now < in.cfg.AllocFailFrom {
		return false
	}
	if in.cfg.AllocFailUntil > 0 && now >= in.cfg.AllocFailUntil {
		return false
	}
	if !in.rng.Bool(in.cfg.AllocFail) {
		return false
	}
	in.stats.AllocFailures++
	in.emit("alloc-fail", int(n), 1)
	return true
}

// BatchFate draws the fate of one hot-page interrupt batch: dropped, delayed
// by the returned duration, or (false, 0) delivered normally.
func (in *Injector) BatchFate() (drop bool, delay sim.Time) {
	if in == nil {
		return false, 0
	}
	if in.cfg.DropBatch > 0 && in.rng.Bool(in.cfg.DropBatch) {
		in.stats.BatchesDropped++
		in.emit("drop-batch", -1, 1)
		return true, 0
	}
	if in.cfg.DelayBatch > 0 && in.rng.Bool(in.cfg.DelayBatch) {
		d := in.cfg.DelayBy
		if d <= 0 {
			d = 200 * sim.Microsecond
		}
		in.stats.BatchesDelayed++
		in.emit("delay-batch", -1, 1)
		return false, d
	}
	return false, 0
}

// ExtraRemoteLatency is the memory system's degraded-link hook: the extra
// latency to add to a remote miss of base latency lat between the
// requester's node and the page's home node.
func (in *Injector) ExtraRemoteLatency(local, home mem.NodeID, lat sim.Time) sim.Time {
	if in == nil || in.cfg.SlowFactor <= 1 {
		return 0
	}
	if int(local) != in.cfg.SlowNode && int(home) != in.cfg.SlowNode {
		return 0
	}
	in.stats.SlowedMisses++
	return sim.Time(float64(lat) * (in.cfg.SlowFactor - 1))
}

// NoteDrain records a completed node drain (core orchestrates the drain
// itself: it owns the allocator and the pager's eviction sweep).
func (in *Injector) NoteDrain(node mem.NodeID, evicted int) {
	if in == nil {
		return
	}
	in.stats.DrainedNode = int(node)
	in.stats.ReplicasEvicted = evicted
	in.emit("drain-node", int(node), evicted)
}

// emit records one fault event with Action naming the fault.
func (in *Injector) emit(action string, node, n int) {
	if !in.Obs.On() {
		return
	}
	e := obs.NewEvent(obs.KindFaultInjected)
	e.Node = node
	e.Action = action
	e.N = n
	in.Obs.EmitNow(e)
}
