package core

import (
	"fmt"

	"ccnuma/internal/cache"
	"ccnuma/internal/directory"
	"ccnuma/internal/fault"
	"ccnuma/internal/kernel/alloc"
	"ccnuma/internal/kernel/klock"
	"ccnuma/internal/kernel/pager"
	"ccnuma/internal/kernel/sched"
	"ccnuma/internal/kernel/vm"
	"ccnuma/internal/mem"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
	"ccnuma/internal/tlb"
	"ccnuma/internal/topology"
	"ccnuma/internal/trace"
	"ccnuma/internal/workload"
)

// idleTick is how often an idle CPU re-checks its run queue.
const idleTick = 100 * sim.Microsecond

// ctxSwitch is the kernel cost of a context switch.
const ctxSwitch = 15 * sim.Microsecond

// quantum is the scheduling time slice.
const quantum = 5 * sim.Millisecond

// sliceMax bounds the virtual time one CPU advances per event, so resource
// contention across CPUs interleaves at fine grain.
const sliceMax = 20 * sim.Microsecond

type procState struct {
	vmID mem.ProcID
	sp   *sched.Proc
	spec *workload.ProcSpec
	// specIdx is spec's index in the workload's Procs slice — the stable
	// identity used wherever per-spec state is kept (pointer-keyed maps are
	// banned: ranging one is latent nondeterminism).
	specIdx int
	gen     *workload.Gen
	alive   bool
	// slotGen distinguishes successive occupants of a reused vm ProcID slot,
	// so a typed wake event scheduled for an exited process cannot wake its
	// successor.
	slotGen uint32
}

type cpuState struct {
	id      mem.CPUID
	node    mem.NodeID
	caches  *cache.Hierarchy
	tlb     *tlb.TLB
	cur     *procState
	quantum sim.Time // current quantum's end

	// pagerWork holds hot-page batches queued for this CPU's next step;
	// pagerHead indexes the next unserviced batch so draining reuses one
	// backing array instead of re-slicing it away.
	pagerWork [][]directory.HotRef
	pagerHead int
	// flushCharge is pending TLB-shootdown interrupt time to charge.
	flushCharge sim.Time

	steps      uint64
	idle       bool
	extraDelay sim.Time
	bd         stats.Breakdown
}

// System is one assembled machine + workload instance.
type System struct {
	spec *workload.Spec
	opt  Options
	cfg  topology.Config

	eng      *sim.Engine
	rng      *sim.Rand
	val      *cache.Validity
	allocs   *alloc.Allocator
	vmm      *vm.VM
	locks    *klock.Set
	counters *directory.Counters
	pg       *pager.Pager
	mems     *directory.MemSystem
	inj      *fault.Injector // nil unless Options.Faults enables something
	schedul  sched.Scheduler
	cpus     []*cpuState
	procs    []*procState // indexed by vm ProcID (slots reused)
	slotGens []uint32     // per vm-slot generation counters (wake identity)
	tracer   *trace.Trace
	deadline sim.Time // hard cap; runs normally end at workload completion
	seedGen  *sim.Rand

	// Typed event kinds (registered once in NewSystem): the per-CPU step
	// chain and the process wake-after-block event. Scheduling them carries
	// only an integer arg through the engine heap, so the simulator's inner
	// loop allocates nothing per event.
	stepKind sim.Kind
	wakeKind sim.Kind

	// batchPool recycles the hot-page batch slices that travel from the
	// directory's pending queue through cpuState.pagerWork to HandleBatch.
	batchPool [][]directory.HotRef

	// Observability (nil when disabled): the event log behind
	// CollectEvents, and the periodic time-series sampler with its
	// previous-snapshot state for computing per-interval deltas.
	events  *obs.Log
	sampler *obs.Sampler
	prevCPU []obs.CPUSample
	prevCtr obs.CounterSample

	live          int
	pendingSpawns int
	// respawnsLeft is indexed by proc-spec index (procState.specIdx): the
	// remaining respawn budget for churning specs, counted down from
	// MaxRespawns. The replaced pointer-keyed map had identical semantics
	// but was a latent nondeterminism hazard.
	respawnsLeft []int
	completedAt  sim.Time
}

type specAdapter struct{ s *workload.Spec }

func (a specAdapter) nodes() int           { return a.s.Nodes }
func (a specAdapter) memoryPerNode() int64 { return a.s.MemoryPerNode }
func (a specAdapter) trigger() uint16      { return a.s.Trigger }
func (a specAdapter) duration() sim.Time   { return a.s.Duration }

// NewSystem assembles a machine for the spec under the options.
func NewSystem(spec *workload.Spec, opt Options) (*System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opt, err := opt.withDefaults(specAdapter{spec})
	if err != nil {
		return nil, err
	}
	cfg := opt.Config
	if cfg.TotalFrames() < spec.Pages {
		return nil, fmt.Errorf("core: %d pages exceed machine memory (%d frames)",
			spec.Pages, cfg.TotalFrames())
	}

	s := &System{
		spec:         spec,
		opt:          opt,
		cfg:          cfg,
		eng:          &sim.Engine{},
		rng:          sim.NewRand(opt.Seed ^ 0xabcdef),
		seedGen:      sim.NewRand(opt.Seed*2654435761 + 1),
		deadline:     4 * opt.Duration, // hard cap; completion usually ends the run
		respawnsLeft: make([]int, len(spec.Procs)),
	}
	for i := range spec.Procs {
		s.respawnsLeft[i] = spec.Procs[i].MaxRespawns
	}
	s.val = cache.NewValidity(spec.Pages, cfg.Nodes)
	s.allocs = alloc.New(cfg.Nodes, cfg.FramesPerNode())
	place := vm.FirstTouch
	if opt.RoundRobin {
		place = vm.RoundRobin(cfg.Nodes)
	}
	s.vmm = vm.New(spec.Pages, cfg.Nodes, s.allocs, s.val, place)
	s.vmm.Locate = func(pid mem.ProcID) mem.NodeID {
		if int(pid) < len(s.procs) && s.procs[pid] != nil {
			return cfg.NodeOf(s.procs[pid].sp.LastCPU)
		}
		return 0
	}
	s.locks = klock.NewSet(64)
	s.mems = directory.NewMemSystem(cfg)

	trigger := spec.Trigger
	if opt.Dynamic {
		trigger = opt.Params.Trigger
	}
	s.counters = directory.NewCounters(spec.Pages, cfg.TotalCPUs(), trigger,
		cfg.PagesPerInterrupt, opt.Metric.SampleRate(), s.onHotBatch)

	if opt.Dynamic {
		s.pg = pager.New(cfg, s.locks, s.allocs, s.vmm, s.counters, opt.Params)
		s.pg.Flush = s.shootdown
		s.pg.Adaptive = opt.AdaptiveTrigger
		s.pg.ReclaimCold = opt.ReclaimColdReplicas
	}

	if opt.Faults.Enabled() {
		s.inj = fault.New(opt.Faults, opt.Seed, s.eng.Now)
		s.allocs.FailHook = s.inj.AllocShouldFail
		s.mems.ExtraRemote = s.inj.ExtraRemoteLatency
		if s.pg != nil {
			s.pg.Deferral = opt.Faults.DeferFailedOps
			s.pg.OverheadBudget = opt.Faults.OverheadBudget
		}
	}

	switch spec.Sched {
	case workload.SchedPinned:
		s.schedul = sched.NewPinned(cfg.TotalCPUs())
	case workload.SchedPartition:
		s.schedul = sched.NewPartition(cfg.TotalCPUs())
	default:
		s.schedul = sched.NewAffinity(cfg.TotalCPUs())
	}

	s.cpus = make([]*cpuState, cfg.TotalCPUs())
	for i := range s.cpus {
		s.cpus[i] = &cpuState{
			id:     mem.CPUID(i),
			node:   cfg.NodeOf(mem.CPUID(i)),
			caches: cache.NewHierarchy(i, cfg.L1Size, cfg.L1Assoc, cfg.L2Size, cfg.L2Assoc, s.val),
			tlb:    tlb.New(cfg.TLBEntries, cfg.TLBAssoc),
		}
	}
	if opt.CollectTrace {
		// Size the record buffer for the run's step budget (duration worth of
		// steps across all CPUs, of which roughly one in sixteen produces a
		// record) so the trace does not re-grow throughout the run.
		s.tracer = trace.WithCapacity(traceCapacity(opt.Duration, cfg))
	}
	s.stepKind = s.eng.Register(func(now sim.Time, arg uint64) {
		s.step(s.cpus[arg], now)
	})
	s.wakeKind = s.eng.Register(func(now sim.Time, arg uint64) {
		s.wakeProc(mem.ProcID(arg>>32), uint32(arg))
	})
	s.wireObservability()

	s.wireKernelRegions()
	return s, nil
}

func (s *System) wireKernelRegions() {
	for _, r := range s.spec.Regions {
		if r.Kind == workload.CodeRegion {
			for i := 0; i < r.N; i++ {
				s.vmm.SetFlags(r.Page(i), vm.Code)
			}
		}
		if r.Kind != workload.KernelRegion {
			continue
		}
		for i := 0; i < r.N; i++ {
			node := mem.NodeID(0)
			if r.WireStripe {
				node = mem.NodeID(i * s.cfg.Nodes / r.N)
			} else if r.WireNode >= 0 {
				node = mem.NodeID(r.WireNode)
			}
			if int(node) >= s.cfg.Nodes {
				node = mem.NodeID(s.cfg.Nodes - 1)
			}
			s.vmm.Wire(r.Page(i), node)
		}
	}
}

// traceCapacity estimates the miss-trace record volume for a run of the
// given duration: the machine's total step budget, of which roughly one in
// sixteen references produces a TLB- or cache-miss record. Only a capacity
// hint — the trace grows past it if the estimate is low.
func traceCapacity(d sim.Time, cfg topology.Config) int {
	steps := int64(d) / int64(cfg.CycleTime*cyclesPerStep) * int64(cfg.TotalCPUs())
	est := int(steps / 16)
	if est < 1024 {
		est = 1024
	}
	if est > 1<<22 {
		est = 1 << 22
	}
	return est
}

// wakeProc is the typed wake-after-block event: make the process runnable
// again if the same process still occupies the slot and is still alive.
func (s *System) wakeProc(id mem.ProcID, gen uint32) {
	if int(id) >= len(s.procs) {
		return
	}
	if p := s.procs[id]; p != nil && p.slotGen == gen && p.alive {
		s.schedul.MakeRunnable(p.sp)
	}
}

// onHotBatch queues a pager interrupt for the CPU that triggered the first
// hot page of the batch. The directory's batch slice is only borrowed for
// the duration of the call, so it is copied into a pooled slice that step
// returns to the pool once HandleBatch has serviced it.
func (s *System) onHotBatch(batch []directory.HotRef) {
	if s.pg == nil {
		return
	}
	var cp []directory.HotRef
	if n := len(s.batchPool); n > 0 {
		cp = s.batchPool[n-1][:0]
		s.batchPool = s.batchPool[:n-1]
	}
	cp = append(cp, batch...)
	if s.inj != nil {
		drop, delay := s.inj.BatchFate()
		if drop {
			// The interrupt is lost. The pages' counters were already cleared
			// by the directory's pending logic, so they re-heat and
			// re-trigger later — exactly a lost interrupt's behaviour.
			s.batchPool = append(s.batchPool, cp)
			return
		}
		if delay > 0 {
			// The fault-injected delay path is cold by construction, so its
			// closure event may allocate.
			s.eng.At(s.eng.Now()+delay, func(sim.Time) { s.queueBatch(cp) })
			return
		}
	}
	s.queueBatch(cp)
}

// queueBatch hands a pager batch to the triggering CPU's work queue.
func (s *System) queueBatch(cp []directory.HotRef) {
	if len(cp) == 0 {
		return
	}
	s.cpus[cp[0].CPU].pagerWork = append(s.cpus[cp[0].CPU].pagerWork, cp)
}

// drainNode is the fault layer's mid-run memory drain: the node's allocator
// goes offline, then the pager sweeps every replica off the node (master
// copies stay resident). The sweep's kernel time lands on CPU 0, like the
// other interval kernel work.
func (s *System) drainNode(now sim.Time, node mem.NodeID) {
	s.allocs.SetOffline(node, true)
	evicted := 0
	if s.pg != nil {
		c0 := s.cpus[0]
		dt, n := s.pg.DrainNode(now, c0.id, node, &c0.bd)
		c0.extraDelay += dt
		evicted = n
	} else {
		for {
			if _, ok := s.vmm.ReclaimReplicaOn(node); !ok {
				break
			}
			evicted++
		}
	}
	s.inj.NoteDrain(node, evicted)
}

// shootdown implements the pager's TLB-flush hook.
func (s *System) shootdown(now sim.Time, initiator mem.CPUID, pages []mem.GPage) sim.Time {
	k := s.cfg.Kernel
	flushed := 0
	for _, c := range s.cpus {
		if c.id == initiator {
			c.tlb.FlushAll()
			continue
		}
		if s.cfg.TrackTLBHolders {
			holds := false
			for _, p := range pages {
				if c.tlb.HoldsPage(p) {
					holds = true
					break
				}
			}
			if !holds {
				continue
			}
		}
		c.tlb.FlushAll()
		c.flushCharge += k.TLBFlushLocal
		flushed++
	}
	total := len(s.cpus) - 1
	if total <= 0 || !s.cfg.TrackTLBHolders {
		return k.TLBFlushWait
	}
	// Tracking holders shrinks the initiator's wait proportionally, with a
	// floor for the IPI round trip itself.
	w := k.TLBFlushWait * sim.Time(flushed+1) / sim.Time(total+1)
	if min := k.TLBFlushWait / 8; w < min {
		w = min
	}
	return w
}

// addProc creates a live process from its spec; specIdx is the spec's index
// in the workload's Procs slice.
func (s *System) addProc(ps *workload.ProcSpec, specIdx int) *procState {
	id := s.vmm.AddProcess()
	p := &procState{
		vmID:    id,
		spec:    ps,
		specIdx: specIdx,
		gen:     ps.Gen,
		alive:   true,
		sp: &sched.Proc{
			ID:  id,
			Pin: ps.Pin,
			Job: ps.Job,
		},
	}
	if ps.Pin >= 0 {
		p.sp.LastCPU = ps.Pin
	} else {
		p.sp.LastCPU = mem.CPUID(s.rng.Intn(s.cfg.TotalCPUs()))
	}
	for int(id) >= len(s.procs) {
		s.procs = append(s.procs, nil)
		s.slotGens = append(s.slotGens, 0)
	}
	s.slotGens[id]++
	p.slotGen = s.slotGens[id]
	s.procs[id] = p
	s.schedul.Add(p.sp)
	s.live++
	return p
}

// finished reports whether all workload processes have completed.
func (s *System) finished() bool { return s.live == 0 && s.pendingSpawns == 0 }

// exitProc tears a process down, releasing its private pages, and respawns
// it when the spec asks for churn.
func (s *System) exitProc(p *procState) {
	p.alive = false
	s.schedul.Exit(p.sp)
	for _, r := range p.spec.Private {
		for i := 0; i < r.N; i++ {
			s.vmm.ReleasePage(r.Page(i))
		}
	}
	s.vmm.RemoveProcess(p.vmID)
	s.procs[p.vmID] = nil
	s.live--
	if p.spec.Respawn {
		if left := s.respawnsLeft[p.specIdx]; left != 0 {
			s.respawnsLeft[p.specIdx] = left - 1
			p.spec.Gen.Reset(s.seedGen.Uint64())
			s.addProc(p.spec, p.specIdx)
		}
	}
	if s.finished() && s.completedAt == 0 {
		s.completedAt = s.eng.Now()
	}
}

// preTouch performs the workload's initialisation touches (master threads
// faulting in shared data before the run).
func (s *System) preTouch() {
	for _, pt := range s.spec.PreTouches {
		ps := &s.spec.Procs[pt.Proc]
		// The process may not exist yet if it starts late; pre-touches are
		// defined for procs that start at time zero.
		var p *procState
		for _, cand := range s.procs {
			if cand != nil && cand.spec == ps {
				p = cand
				break
			}
		}
		if p == nil {
			continue
		}
		node := s.cfg.NodeOf(p.sp.LastCPU)
		for i := 0; i < pt.Region.N; i++ {
			s.vmm.Touch(p.vmID, pt.Region.Page(i), node)
		}
	}
}
