package main

import (
	"time"

	"ccnuma/internal/cache"
	"ccnuma/internal/directory"
	"ccnuma/internal/mem"
	"ccnuma/internal/serve"
	"ccnuma/internal/sim"
	"ccnuma/internal/tlb"
	"ccnuma/internal/topology"
	"ccnuma/internal/workload"
)

// The replays time each simulator layer's public functions on the
// reference stream the workload's own generators produce. They stand
// outside the simulator, so they isolate a layer's host cost; what they
// cannot reach (core.step, core.access, the pager) the profile attributes.

// replayRefs is how many references one replay generates per workload.
const replayRefs = 1 << 20

// replayBatch is how many calls one replay span covers.
const replayBatch = 1 << 16

// ref is one generated memory reference.
type ref struct {
	page  mem.GPage
	line  uint8
	kind  mem.AccessKind
	cpu   mem.CPUID
	asid  mem.ProcID
	wired bool
}

// layerTotals accumulates one layer's replay: calls and wall time.
type layerTotals struct {
	calls int
	wall  time.Duration
}

func (l *layerTotals) ns() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.wall) / float64(l.calls)
}

// replayTotals is every layer's replay, with the outcome counts the ratio
// metrics need.
type replayTotals struct {
	gen, tlb, cache, memsys, counters, engine layerTotals
	tlbMisses, l1Hits, l2Hits                 int
}

// machine is the CC-NUMA preset with the spec's node-count override, as
// core applies it.
func machine(spec *workload.Spec) topology.Config {
	cfg := topology.CCNUMA()
	if spec.Nodes > 0 {
		cfg.Nodes = spec.Nodes
	}
	return cfg
}

// generate draws up to n references from spec's process generators,
// round-robin in quanta, each process on CPU index mod CPUs. Blocks are
// skipped; an exited process leaves the rotation.
func generate(tr *tracer, parent int, spec *workload.Spec, cfg topology.Config, n int, tot *layerTotals) []ref {
	wired := make([]bool, spec.Pages)
	for _, r := range spec.Regions {
		if r.WireNode >= 0 || r.WireStripe {
			for i := 0; i < r.N; i++ {
				wired[r.Page(i)] = true
			}
		}
	}
	const quantum = 512
	cpus := cfg.TotalCPUs()
	live := make([]bool, len(spec.Procs))
	for i := range live {
		live[i] = true
	}
	out := make([]ref, 0, n)
	steps := make([]workload.Step, quantum)
	for alive := len(live); alive > 0 && len(out) < n; {
		id := tr.begin("replay.workload", parent, 0)
		for p := range spec.Procs {
			if !live[p] {
				continue
			}
			g := spec.Procs[p].Gen
			cpu := mem.CPUID(p % cpus)
			t0 := time.Now()
			k := 0
			for ; k < quantum; k++ {
				steps[k] = g.Next(cpu)
				if steps[k].Kind == workload.StepExit {
					k++
					break
				}
			}
			tot.wall += time.Since(t0)
			tot.calls += k
			for _, st := range steps[:k] {
				switch st.Kind {
				case workload.StepExit:
					live[p] = false
					alive--
				case workload.StepAccess:
					out = append(out, ref{page: st.Page, line: st.Line, kind: st.Access, cpu: cpu,
						asid: mem.ProcID(p), wired: wired[st.Page]})
				}
			}
		}
		tr.end(id)
	}
	return out
}

// timed runs fn over refs in batches, one span each, adding the wall time
// to tot.
func timed(tr *tracer, parent int, name string, refs []ref, tot *layerTotals, fn func(i int, r ref)) {
	for lo := 0; lo < len(refs); lo += replayBatch {
		hi := min(lo+replayBatch, len(refs))
		id := tr.begin(name, parent, 0)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i, refs[i])
		}
		tot.wall += time.Since(t0)
		tr.end(id)
	}
}

// replayWorkload replays every layer on one simulation template's stream.
func replayWorkload(tr *tracer, req serve.Request, n int, tot *replayTotals) error {
	job, err := req.Build()
	if err != nil {
		return err
	}
	parent := tr.begin("replay", 0, 0)
	defer tr.end(parent)
	spec := job.Spec()
	cfg := machine(spec)
	refs := generate(tr, parent, spec, cfg, n, &tot.gen)

	// First touch decides each page's home node, as under the default
	// placement; homes are assigned before timing.
	home := make([]mem.NodeID, spec.Pages)
	homed := make([]bool, spec.Pages)
	val := cache.NewValidity(spec.Pages, cfg.Nodes)
	for _, r := range refs {
		if !homed[r.page] {
			homed[r.page] = true
			home[r.page] = cfg.NodeOf(r.cpu)
			val.Assign(r.page, home[r.page])
		}
	}

	// TLB: a translation per unwired reference, refilled on a miss.
	tlbs := make([]*tlb.TLB, cfg.TotalCPUs())
	for i := range tlbs {
		tlbs[i] = tlb.New(cfg.TLBEntries, cfg.TLBAssoc)
	}
	var unwired []ref
	for _, r := range refs {
		if !r.wired {
			unwired = append(unwired, r)
		}
	}
	tot.tlb.calls += len(unwired)
	timed(tr, parent, "replay.tlb", unwired, &tot.tlb, func(_ int, r ref) {
		t := tlbs[r.cpu]
		if _, _, ok := t.Lookup(r.asid, r.page); !ok {
			t.Insert(r.asid, r.page, mem.PFN(r.page), false)
			tot.tlbMisses++
		}
	})

	// Caches: every reference.
	hier := make([]*cache.Hierarchy, cfg.TotalCPUs())
	for i := range hier {
		hier[i] = cache.NewHierarchy(i, cfg.L1Size, cfg.L1Assoc, cfg.L2Size, cfg.L2Assoc, val)
	}
	missed := make([]bool, len(refs))
	tot.cache.calls += len(refs)
	timed(tr, parent, "replay.cache", refs, &tot.cache, func(i int, r ref) {
		switch hier[r.cpu].Access(r.page.Line(int(r.line)%mem.LinesPerPage), r.kind) {
		case cache.HitL1:
			tot.l1Hits++
		case cache.HitL2:
			tot.l2Hits++
		default:
			missed[i] = true
		}
	})
	var misses []ref
	for i, r := range refs {
		if missed[i] {
			misses = append(misses, r)
		}
	}

	// Memory system and counters: every full miss. The clock advances 10 ns
	// per miss, a busy but unsaturated machine.
	ms := directory.NewMemSystem(cfg)
	remote := make([]bool, len(misses))
	tot.memsys.calls += len(misses)
	timed(tr, parent, "replay.memsys", misses, &tot.memsys, func(i int, r ref) {
		_, remote[i] = ms.Access(sim.Time(10*i), r.cpu, home[r.page], r.kind)
	})
	// Counters see the unwired misses, as under cache-driven counting.
	var counted []ref
	var countedRemote []bool
	for i, r := range misses {
		if !r.wired {
			counted = append(counted, r)
			countedRemote = append(countedRemote, remote[i])
		}
	}
	ctr := directory.NewCounters(spec.Pages, cfg.TotalCPUs(), spec.Trigger, cfg.PagesPerInterrupt, 1,
		func([]directory.HotRef) {})
	tot.counters.calls += len(counted)
	timed(tr, parent, "replay.counters", counted, &tot.counters, func(i int, r ref) {
		ctr.Record(r.page, r.cpu, r.kind.IsWrite(), countedRemote[i])
	})

	// Event queue: one typed step chain per CPU, each event re-arming its
	// chain a pseudo-random 50-1550 ns later, as core's step events do.
	eng := &sim.Engine{}
	var kind sim.Kind
	x := uint64(0x9e3779b97f4a7c15)
	kind = eng.Register(func(now sim.Time, arg uint64) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		eng.AtKind(now+sim.Time(50+x%1500), kind, arg)
	})
	for c := 0; c < cfg.TotalCPUs(); c++ {
		eng.AtKind(0, kind, uint64(c))
	}
	tot.engine.calls += len(refs)
	timed(tr, parent, "replay.sim", refs, &tot.engine, func(int, ref) { eng.Step() })
	return nil
}
