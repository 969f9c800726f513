package core

import (
	"context"
	"fmt"

	"ccnuma/internal/cache"
	"ccnuma/internal/kernel/alloc"
	"ccnuma/internal/kernel/sched"
	"ccnuma/internal/kernel/vm"
	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
	"ccnuma/internal/trace"
	"ccnuma/internal/workload"
)

// rebalancePeriod is how often the affinity scheduler's load balancer runs.
const rebalancePeriod = 30 * sim.Millisecond

// cyclesPerStep is the compute charged per generator step, in CPU cycles.
// One step models a small group of instructions containing one memory-system
// access (one cache-line touch).
const cyclesPerStep = 4

// schedule arms cpu c's next step event. Each CPU's entire chain reuses one
// registered typed event (stepKind with the CPU index as arg), so the
// simulator's hottest call allocates nothing.
func (s *System) schedule(c *cpuState, at sim.Time) {
	s.eng.AtKind(at, s.stepKind, uint64(c.id))
}

// step is one CPU's event: pending shootdown charges, queued pager work,
// scheduling, and then up to sliceMax of reference execution.
func (s *System) step(c *cpuState, now sim.Time) {
	if s.finished() {
		return // the workload completed; stop this CPU's event chain
	}
	t := now
	if c.flushCharge > 0 {
		c.bd.Pager.Add(stats.FnTLBFlush, c.flushCharge)
		t += c.flushCharge
		c.flushCharge = 0
	}
	if c.extraDelay > 0 {
		// Kernel work performed on this CPU's behalf at an interval
		// boundary (cold-replica reclamation); the categories were already
		// recorded, only the time passes here.
		t += c.extraDelay
		c.extraDelay = 0
	}
	if c.pagerHead < len(c.pagerWork) && s.pg != nil {
		batch := c.pagerWork[c.pagerHead]
		c.pagerHead++
		if c.pagerHead == len(c.pagerWork) {
			c.pagerWork = c.pagerWork[:0]
			c.pagerHead = 0
		}
		dt := s.pg.HandleBatch(t, c.id, batch, &c.bd)
		s.batchPool = append(s.batchPool, batch)
		s.schedule(c, t+dt)
		return
	}
	if c.cur == nil {
		next := s.schedul.Next(c.id)
		if next == nil {
			c.idle = true
			c.bd.Idle += idleTick
			s.schedule(c, t+idleTick)
			return
		}
		c.idle = false
		c.cur = s.procs[next.ID]
		c.bd.Compute[stats.Kernel] += ctxSwitch
		t += ctxSwitch
		c.quantum = t + quantum
	}
	p := c.cur
	f := p.feed
	if p.spec.ExitAt > 0 && t >= p.spec.ExitAt {
		s.exitProc(p)
		c.cur = nil
		s.schedule(c, t)
		return
	}

	sliceEnd := t + sliceMax
	for t < sliceEnd {
		if t >= c.quantum {
			s.schedul.Yield(p.sp)
			c.cur = nil
			break
		}
		var r workload.Ref
		if i := f.pos; uint(i) < uint(len(f.refs)) {
			r, f.pos = f.refs[i], i+1
		} else {
			r = f.advance(s.helper)
		}
		switch r.Kind() {
		case workload.StepExit:
			s.exitProc(p)
			c.cur = nil
		case workload.StepBlock:
			s.schedul.Block(p.sp)
			c.cur = nil
			s.eng.AtKind(t+f.block(), s.wakeKind, uint64(p.vmID)<<32|uint64(p.slotGen))
		case workload.StepAccess:
			if r.Deferred() {
				r = f.res.Resolve(f.gen, r, c.id)
			}
			var missed bool
			t, missed = s.access(c, p, r, t)
			if missed {
				// Yield the event loop after every memory miss so resource
				// contention across CPUs interleaves in time order.
				s.schedule(c, t)
				return
			}
			continue
		}
		break
	}
	s.schedule(c, t)
}

// access runs one memory reference through TLB, caches, and (on a full
// miss) the NUMA memory system, charging all latencies and feeding the
// policy counters and the trace.
//
// A read (data load or instruction fetch) first probes the MRU ways of the
// TLB and of its side's L1. Both probes change nothing on a miss, so a read
// that misses either falls back with the state and statistics the full path
// expects. A read that hits the TLB needs nothing else from the page record:
// wired pages never enter a TLB (the only Insert calls are in the non-wired
// branch below), a read ignores the protection bit, and a transit lock
// charges a read only when it needed a fresh translation.
func (s *System) access(c *cpuState, p *procState, r workload.Ref, t sim.Time) (sim.Time, bool) {
	mode := stats.User
	if r.Kernel() {
		mode = stats.Kernel
	}
	c.steps++
	comp := s.cfg.CycleTime * cyclesPerStep
	c.bd.Compute[mode] += comp
	t += comp

	page, acc := r.Page(), r.Access()
	line := page.Line(int(r.Line()) % mem.LinesPerPage)
	if !acc.IsWrite() {
		if pfn, ok := c.tlb.HitMRU(p.vmID, page); ok {
			l1 := c.caches.L1D
			if acc.IsInstr() {
				l1 = c.caches.L1I
			}
			if l1.HitMRU(line) {
				return t, false // first-level hits are folded into the compute charge
			}
			return s.reference(c, r, mode, false, pfn, c.caches.ReadMissedMRU(line, acc), t)
		}
	}

	pi := s.vmm.Page(page)
	wired := pi.Flags&vm.Wired != 0
	var pfn mem.PFN
	if wired {
		pfn = pi.Master
	} else {
		var ro, ok bool
		pfn, ro, ok = c.tlb.Lookup(p.vmID, page)
		if !ok {
			c.bd.TLBRefill += s.cfg.TLBRefill
			t += s.cfg.TLBRefill
			if s.tracer != nil {
				s.tracer.Append(trace.Record{At: t, Page: page, CPU: c.id,
					Kind: acc, Kernel: mode == stats.Kernel, Src: trace.TLBMiss})
			}
			pte, kind := s.vmm.Touch(p.vmID, page, c.node)
			if !s.opt.Metric.CacheDriven() {
				s.counters.Record(page, c.id, acc.IsWrite(),
					s.cfg.NodeOfFrame(pte.PFN) != c.node)
			}
			if kind != vm.NoFault {
				c.bd.FaultTime += s.cfg.Kernel.PageFault
				t += s.cfg.Kernel.PageFault
				if s.opt.ReplicateCodeOnFirstTouch {
					pte = s.codeFirstTouchReplica(p, page, pte)
				}
			}
			pfn, ro = pte.PFN, pte.RO
			c.tlb.Insert(p.vmID, page, pfn, ro)
		}
		if pi.TransitUntil > t {
			// The page is locked by an in-flight pager operation. Reads
			// still see the old (valid) copy; a write spins until the
			// operation completes, and a reference that needed a fresh
			// translation pays an extra fault (Table 6's Page Fault
			// category: "additional page faults, due to changes in
			// mappings").
			if acc.IsWrite() {
				c.bd.Pager.Add(stats.FnPageFault, pi.TransitUntil-t)
				t = pi.TransitUntil
			} else if !ok {
				c.bd.Pager.Add(stats.FnPageFault, s.cfg.Kernel.PageFault)
				t += s.cfg.Kernel.PageFault
			}
		}
		if acc.IsWrite() && ro {
			// Protection trap: collapse the replicas, then retry.
			if s.pg != nil {
				t += s.pg.CollapseWrite(t, c.id, page, &c.bd)
			}
			pte, _ := s.vmm.Touch(p.vmID, page, c.node)
			pfn = pte.PFN
			c.tlb.Insert(p.vmID, page, pfn, pte.RO)
		}
	}
	return s.reference(c, r, mode, wired, pfn, c.caches.Access(line, acc), t)
}

// reference is access's cache and memory half, once the reference is
// translated to frame pfn and run through the cache hierarchy to level lvl:
// on a full miss it runs the memory system, charging stalls and feeding the
// cache-driven counters and the trace. It reports whether the hierarchy
// missed.
func (s *System) reference(c *cpuState, r workload.Ref, mode stats.Mode, wired bool, pfn mem.PFN, lvl cache.Level, t sim.Time) (sim.Time, bool) {
	acc := r.Access()
	side := stats.Data
	if acc.IsInstr() {
		side = stats.Instr
	}
	switch lvl {
	case cache.HitL1:
		// First-level hits are folded into the compute charge.
	case cache.HitL2:
		c.bd.AddStall(mode, side, stats.L2, s.cfg.L2Hit)
		t += s.cfg.L2Hit
	case cache.Miss:
		home := s.cfg.NodeOfFrame(pfn)
		lat, remote := s.mems.Access(t, c.id, home, acc)
		lvl := stats.LocalMem
		if remote {
			lvl = stats.RemoteMem
		}
		c.bd.AddStall(mode, side, lvl, lat)
		t += lat
		if s.tracer != nil {
			s.tracer.Append(trace.Record{At: t, Page: r.Page(), CPU: c.id,
				Kind: acc, Kernel: mode == stats.Kernel, Src: trace.CacheMiss})
		}
		if !wired && s.opt.Metric.CacheDriven() {
			s.counters.Record(r.Page(), c.id, acc.IsWrite(), remote)
		}
		return t, true
	}
	return t, false
}

// codeFirstTouchReplica implements the replicate-code-on-first-touch
// ablation (Section 7.2.3): the first fault of a code page from a node
// without a copy creates a replica there immediately.
func (s *System) codeFirstTouchReplica(p *procState, page mem.GPage, pte vm.PTE) vm.PTE {
	pi := s.vmm.Page(page)
	if pi.Flags&vm.Code == 0 || pi.Flags&vm.Wired != 0 {
		return pte
	}
	node := s.cfg.NodeOf(p.sp.LastCPU)
	if s.vmm.HasReplicaOn(page, node) {
		return pte
	}
	f := s.allocs.AllocOn(node, alloc.Replica)
	if f == mem.NoFrame {
		return pte
	}
	if s.vmm.Replicate(page, f) != nil {
		s.allocs.Free(f)
		return pte
	}
	return s.vmm.PTE(p.vmID, page)
}

// start arms the run: process spawns, pre-touches, the periodic kernel
// events, the sampler, and each CPU's initial step event. Split from Run so
// tests and benchmarks can drive the engine step by step.
func (s *System) start() {
	s.feeds = make([]*feed, len(s.spec.Procs))
	for i := range s.feeds {
		s.feeds[i] = &feed{gen: s.spec.Procs[i].Gen}
	}
	for i := range s.spec.Procs {
		ps := &s.spec.Procs[i]
		if ps.StartAt <= 0 {
			s.addProc(ps, i)
		} else {
			ps, i := ps, i
			s.pendingSpawns++
			s.eng.At(ps.StartAt, func(sim.Time) {
				s.pendingSpawns--
				s.addProc(ps, i)
			})
		}
	}
	s.preTouch()

	if s.pg != nil {
		s.eng.Every(s.opt.Params.ResetInterval, func(now sim.Time) {
			if s.pg.ReclaimCold {
				// Reclaim while this interval's sharing information is
				// still in the counters; the kernel time lands on CPU 0.
				c0 := s.cpus[0]
				c0.extraDelay += s.pg.ReclaimColdReplicas(now, c0.id, &c0.bd)
			}
			s.pg.ResetInterval()
		}, func() bool { return s.finished() || s.eng.Now() >= s.deadline })
	}
	if s.inj != nil {
		if fc := s.inj.Config(); fc.DrainAt > 0 {
			node := mem.NodeID(fc.DrainNode)
			s.eng.At(fc.DrainAt, func(now sim.Time) { s.drainNode(now, node) })
		}
	}
	if aff, ok := s.schedul.(*sched.Affinity); ok {
		// Periodic load balancing (UNIX priority decay): the process
		// movement that makes private pages remote.
		s.eng.Every(rebalancePeriod, func(sim.Time) {
			aff.Rebalance()
		}, func() bool { return s.finished() || s.eng.Now() >= s.deadline })
	}
	s.startSampler()
	for _, c := range s.cpus {
		s.schedule(c, 0)
	}
}

// Run executes the workload to the configured deadline and returns the
// measurements.
func (s *System) Run() (*Result, error) {
	s.start()
	s.helper = startHelper(s.feeds)
	defer s.stopFeeds()
	s.eng.RunUntil(s.deadline)
	if s.tracer != nil {
		s.tracer.Sort()
	}
	s.events.Sort()
	elapsed := s.completedAt
	if elapsed == 0 {
		elapsed = s.deadline // hit the cap without completing
	}

	res := &Result{
		Workload:          s.spec.Name,
		Policy:            s.policyName(),
		Elapsed:           elapsed,
		PerCPU:            make([]stats.Breakdown, len(s.cpus)),
		VM:                s.vmm.Snapshot(),
		Alloc:             s.allocs.Snapshot(),
		Counters:          s.counters.Stats(),
		Memlock:           s.locks.Memlock.Snapshot(),
		PageLocks:         s.locks.PageLockStats(),
		SchedMigrations:   s.schedul.Migrations(),
		Contention:        s.mems.Contention(elapsed),
		LocalMissFraction: s.mems.LocalFraction(),
		AvgRemoteLatency:  s.mems.AvgRemoteLatency(),
		Trace:             s.tracer,
		ObsEvents:         s.events,
		Series:            s.sampler,
		Events:            s.eng.Fired(),
		Faults:            s.inj.Stats(),
	}
	for _, c := range s.cpus {
		res.Steps += c.steps
	}
	if s.pg != nil {
		res.Actions = s.pg.Actions
		res.FinalParams = s.pg.Params()
		res.TriggerTrace = s.pg.TriggerTrace
	}
	for i, c := range s.cpus {
		// Pad each CPU's ledger with trailing idle so ledgers span the run.
		if tot := c.bd.Total(); tot < elapsed {
			c.bd.Idle += elapsed - tot
		}
		res.PerCPU[i] = c.bd
		res.Agg.Merge(&c.bd)
	}
	return res, nil
}

// stopFeeds ends the run's helper and drops the feeds, so a finished
// machine holds no step buffers.
func (s *System) stopFeeds() {
	s.helper.stop()
	s.helper, s.feeds = nil, nil
	for _, p := range s.procs {
		if p != nil {
			p.feed = nil
		}
	}
}

func (s *System) policyName() string {
	switch {
	case s.opt.Dynamic && s.opt.Params.EnableMigration && s.opt.Params.EnableReplication:
		return "Mig/Rep"
	case s.opt.Dynamic && s.opt.Params.EnableMigration:
		return "Migr"
	case s.opt.Dynamic:
		return "Repl"
	case s.opt.RoundRobin:
		return "RR"
	default:
		return "FT"
	}
}

// RunContext executes the workload like Run, with cooperative cancellation:
// when ctx is cancelled or its deadline passes, the engine's run loop stops
// within one cancellation stride (~1k events, microseconds of wall time) and
// the partial run is discarded — the returned error wraps ctx.Err(), so
// errors.Is(err, context.DeadlineExceeded) distinguishes a timeout from a
// cancel. This is what lets a serving layer abandon a run without leaking a
// goroutine that burns CPU to the original deadline.
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		s.eng.SetCancel(func() bool { return ctx.Err() != nil })
		defer s.eng.SetCancel(nil)
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("core: run cancelled after %d events: %w",
			res.Events, cerr)
	}
	return res, nil
}

// Run is the package-level convenience: build a system and run it.
func Run(spec *workload.Spec, opt Options) (*Result, error) {
	sys, err := NewSystem(spec, opt)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// RunContext is the package-level convenience: build a system and run it
// under ctx's cancellation and deadline.
func RunContext(ctx context.Context, spec *workload.Spec, opt Options) (*Result, error) {
	sys, err := NewSystem(spec, opt)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}
