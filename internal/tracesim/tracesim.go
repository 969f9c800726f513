// Package tracesim reproduces the paper's Section-8 methodology: a policy
// simulator driven by miss traces with a simple contentionless memory model
// (300 ns local misses, 1200 ns remote misses, 350 µs per page move). It
// implements the six policies of Figure 6 — three static (round-robin,
// first-touch, post-facto optimal) and three dynamic (migration only,
// replication only, combined) — and the four information metrics of
// Figure 8 (full/sampled cache misses, full/sampled TLB misses).
package tracesim

import (
	"fmt"

	"ccnuma/internal/directory"
	"ccnuma/internal/mem"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/topology"
	"ccnuma/internal/trace"
)

// PolicyKind selects one of the Figure-6 policies.
type PolicyKind int

const (
	// RR places page p on node p mod N (equivalent to random placement).
	RR PolicyKind = iota
	// FT places a page on the node that first misses on it.
	FT
	// PF (post-facto) is the best static placement with future knowledge:
	// each page lives on the node with the most misses to it.
	PF
	// Migr is the dynamic policy restricted to migration.
	Migr
	// Repl is the dynamic policy restricted to replication.
	Repl
	// MigRep is the combined dynamic policy.
	MigRep
)

// Kinds lists the policies in the paper's Figure-6 order.
var Kinds = []PolicyKind{RR, FT, PF, Migr, Repl, MigRep}

// String names the policy as in Figure 6.
func (k PolicyKind) String() string {
	switch k {
	case RR:
		return "RR"
	case FT:
		return "FT"
	case PF:
		return "PF"
	case Migr:
		return "Migr"
	case Repl:
		return "Repl"
	case MigRep:
		return "Mig/Rep"
	default:
		return "?"
	}
}

// Dynamic reports whether the policy moves pages at run time.
func (k PolicyKind) Dynamic() bool { return k == Migr || k == Repl || k == MigRep }

// Config parameterises the trace simulator.
type Config struct {
	// Nodes is the machine size; CPU c lives on node c mod Nodes.
	Nodes int
	// LocalLatency and RemoteLatency are the contentionless miss costs
	// (Section 8: 300 ns and 1200 ns).
	LocalLatency  sim.Time
	RemoteLatency sim.Time
	// MoveCost is charged per migration, replication, or collapse (350 µs).
	MoveCost sim.Time
	// Params drive the dynamic policies.
	Params policy.Params
	// Metric selects the information source.
	Metric policy.Metric
	// OtherTime is the placement-independent execution time (compute, L2
	// hits, idle) added to every policy's total so normalised comparisons
	// include the paper's "other" component.
	OtherTime sim.Time
	// CounterGroup makes CounterGroup CPUs share one miss counter (the
	// Section 7.2.1 space reduction); 0 or 1 keeps per-CPU counters.
	CounterGroup int
}

// DefaultConfig returns the Section-8 parameters: 300/1200 ns miss
// latencies and the 350 µs page-move cost, the latter scaled by the same
// time-compression factor as the full-system kernel costs (traces come from
// time-compressed runs; see DESIGN.md).
func DefaultConfig(nodes int) Config {
	cost := sim.Time(float64(350*sim.Microsecond) * topology.CCNUMA().CostScale)
	return Config{
		Nodes:         nodes,
		LocalLatency:  300,
		RemoteLatency: 1200,
		MoveCost:      cost,
		Params:        policy.Base(),
		Metric:        policy.FullCache,
	}
}

// Outcome is one policy's result over a trace.
type Outcome struct {
	Policy       PolicyKind
	Metric       policy.Metric
	LocalMisses  uint64
	RemoteMisses uint64
	StallLocal   sim.Time
	StallRemote  sim.Time
	Overhead     sim.Time // page-movement cost
	Other        sim.Time
	Migrations   uint64
	Replications uint64
	Collapses    uint64
	HotPages     uint64
}

// Total returns stall + overhead + other: the comparable execution time.
func (o Outcome) Total() sim.Time {
	return o.StallLocal + o.StallRemote + o.Overhead + o.Other
}

// LocalFraction returns the share of misses satisfied locally.
func (o Outcome) LocalFraction() float64 {
	t := o.LocalMisses + o.RemoteMisses
	if t == 0 {
		return 0
	}
	return float64(o.LocalMisses) / float64(t)
}

// String renders a summary line.
func (o Outcome) String() string {
	return fmt.Sprintf("%-7s total=%v stall(l/r)=%v/%v ovh=%v local%%=%.1f moves=%d/%d/%d",
		o.Policy, o.Total(), o.StallLocal, o.StallRemote, o.Overhead,
		100*o.LocalFraction(), o.Migrations, o.Replications, o.Collapses)
}

type pageState struct {
	home     mem.NodeID
	placed   bool
	replicas uint16 // bitmask by node (Nodes <= 16)
	migCount uint8
	everRepl bool
}

func (p *pageState) hasCopy(n mem.NodeID) bool {
	return (p.placed && p.home == n) || p.replicas&(1<<uint(n)) != 0
}

// MaxNodes is the largest machine Simulate models (replica sets are 16-bit
// node masks).
const MaxNodes = 16

// Simulate runs one policy over the trace. The trace must be time-ordered
// (as produced by the machine simulator).
func Simulate(tr *trace.Trace, cfg Config, kind PolicyKind) Outcome {
	if cfg.Nodes <= 0 || cfg.Nodes > MaxNodes {
		panic(fmt.Sprintf("tracesim: unsupported node count %d", cfg.Nodes))
	}
	pages := tr.MaxPage()
	out := Outcome{Policy: kind, Metric: cfg.Metric, Other: cfg.OtherTime}
	if pages == 0 {
		return out
	}
	st := make([]pageState, pages)

	// Post-facto: place each page on the node with the most cache misses.
	if kind == PF {
		counts := make([][]uint32, pages)
		for _, r := range tr.Records {
			if r.Src != trace.CacheMiss {
				continue
			}
			if counts[r.Page] == nil {
				counts[r.Page] = make([]uint32, cfg.Nodes)
			}
			counts[r.Page][int(r.CPU)%cfg.Nodes]++
		}
		for p := range counts {
			if counts[p] == nil {
				continue
			}
			best := 0
			for n := 1; n < cfg.Nodes; n++ {
				if counts[p][n] > counts[p][best] {
					best = n
				}
			}
			st[p].home = mem.NodeID(best)
			st[p].placed = true
		}
	}

	params := cfg.Params.ScaledForSampling(cfg.Metric.SampleRate())
	if kind == Migr {
		params = params.MigrationOnly()
	}
	if kind == Repl {
		params = params.ReplicationOnly()
	}

	var counters *directory.Counters
	var pending []directory.HotRef
	if kind.Dynamic() {
		group := cfg.CounterGroup
		if group < 1 {
			group = 1
		}
		counters = directory.NewGroupedCounters(pages, cfg.Nodes, group, params.Trigger, 1,
			cfg.Metric.SampleRate(), func(batch []directory.HotRef) {
				pending = append(pending, batch...)
			})
	}
	nextReset := params.ResetInterval

	for _, rec := range tr.Records {
		node := mem.NodeID(int(rec.CPU) % cfg.Nodes)
		p := &st[rec.Page]

		if counters != nil {
			for rec.At >= nextReset {
				counters.Reset()
				for i := range st {
					st[i].migCount = 0
				}
				nextReset += params.ResetInterval
			}
		}

		// Placement on first touch (RR is computed, FT observed, PF preset).
		if !p.placed {
			switch kind {
			case RR:
				p.home = mem.NodeID(int(rec.Page) % cfg.Nodes)
			default:
				p.home = node
			}
			p.placed = true
		}

		if rec.Src == trace.CacheMiss {
			if p.hasCopy(node) {
				out.LocalMisses++
				out.StallLocal += cfg.LocalLatency
			} else {
				out.RemoteMisses++
				out.StallRemote += cfg.RemoteLatency
			}
			// A write to a replicated page collapses it to the writer's
			// nearest copy (the pfault path), under every dynamic policy.
			if rec.Kind.IsWrite() && p.replicas != 0 && kind.Dynamic() {
				p.home = nearestHome(p, node)
				p.replicas = 0
				out.Collapses++
				out.Overhead += cfg.MoveCost
			}
		}

		if counters == nil {
			continue
		}
		feed := (cfg.Metric.CacheDriven() && rec.Src == trace.CacheMiss) ||
			(!cfg.Metric.CacheDriven() && rec.Src == trace.TLBMiss)
		if !feed {
			continue
		}
		counters.Record(rec.Page, mem.CPUID(int(rec.CPU)%cfg.Nodes), rec.Kind.IsWrite(), !p.hasCopy(node))
		for _, h := range pending {
			applyAction(&out, cfg, params, counters, &st[h.Page], h)
		}
		pending = pending[:0]
	}
	if counters != nil {
		out.HotPages = counters.Stats().Hot
	}
	return out
}

// nearestHome returns the copy kept after a collapse: the writer's node if a
// copy lives there, otherwise the current home.
func nearestHome(p *pageState, writer mem.NodeID) mem.NodeID {
	if p.replicas&(1<<uint(writer)) != 0 || p.home == writer {
		return writer
	}
	return p.home
}

func applyAction(out *Outcome, cfg Config, params policy.Params,
	counters *directory.Counters, p *pageState, h directory.HotRef) {
	node := mem.NodeID(int(h.CPU))
	stPol := policy.PageState{
		Local:      p.hasCopy(node),
		Replicated: p.replicas != 0,
		MigCount:   p.migCount,
	}
	d := policy.Decide(params, counters.MissRow(h.Page), counters.Writes(h.Page), counters.GroupOf(h.CPU), stPol)
	switch d.Action {
	case policy.MigratePage:
		p.home = node
		p.migCount++
		out.Migrations++
		out.Overhead += cfg.MoveCost
	case policy.ReplicatePage:
		// Replicate to every node above the sharing threshold in one action
		// (matching the kernel implementation); each copy pays MoveCost.
		targets := []mem.NodeID{node}
		row := counters.MissRow(h.Page)
		for c := 0; c < cfg.Nodes; c++ {
			cn := mem.NodeID(c)
			if cn != node && row[counters.GroupOf(mem.CPUID(c))] >= params.Sharing && !p.hasCopy(cn) {
				targets = append(targets, cn)
			}
		}
		for _, n := range targets {
			if p.hasCopy(n) {
				continue
			}
			p.replicas |= 1 << uint(n)
			p.everRepl = true
			out.Replications++
			out.Overhead += cfg.MoveCost
		}
	}
	counters.ClearPage(h.Page)
}

// SimulateAll runs every Figure-6 policy over the trace.
func SimulateAll(tr *trace.Trace, cfg Config) []Outcome {
	outs := make([]Outcome, 0, len(Kinds))
	for _, k := range Kinds {
		outs = append(outs, Simulate(tr, cfg, k))
	}
	return outs
}

// SimulateMetrics runs the combined policy under each Figure-8 metric.
func SimulateMetrics(tr *trace.Trace, cfg Config) []Outcome {
	outs := make([]Outcome, 0, 4)
	for _, m := range []policy.Metric{policy.FullCache, policy.SampledCache, policy.FullTLB, policy.SampledTLB} {
		c := cfg
		c.Metric = m
		outs = append(outs, Simulate(tr, c, MigRep))
	}
	return outs
}
