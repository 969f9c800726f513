package core

import (
	"fmt"

	"ccnuma/internal/mem"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// wireObservability builds the event tracer and time-series sampler the
// options asked for and hands the tracer to every emitting layer (VM,
// directory counters, pager, fault injector). The tracer's one output tees
// the event log (CollectEvents) with the caller's EventSink; with neither
// set there is no tracer. Called once from NewSystem, after the kernel
// components exist.
func (s *System) wireObservability() {
	var collect func(obs.Event)
	if s.opt.CollectEvents {
		s.events = &obs.Log{}
		collect = s.events.Add
	}
	if out := obs.Tee(collect, s.opt.EventSink); out != nil {
		tr := obs.NewTracer(s.eng.Now, out)
		s.vmm.Obs = tr
		s.counters.Obs = tr
		if s.pg != nil {
			s.pg.Obs = tr
		}
		if s.inj != nil {
			s.inj.Obs = tr
		}
	}
	if s.opt.SampleInterval > 0 {
		s.sampler = obs.NewSampler(s.opt.SampleInterval, s.cfg.TotalCPUs(), s.cfg.Nodes)
		s.prevCPU = make([]obs.CPUSample, s.cfg.TotalCPUs())
	}
}

// startSampler schedules the periodic sampling event. Called from Run so the
// first tick lands one interval into the run.
func (s *System) startSampler() {
	if s.sampler == nil {
		return
	}
	s.eng.Every(s.sampler.Interval, s.takeSample,
		func() bool { return s.finished() || s.eng.Now() >= s.deadline })
}

// takeSample records one time-series point: engine gauges, per-CPU breakdown
// deltas since the previous sample, per-node frame occupancy, and directory
// counter deltas. In debug mode it first validates every CPU ledger's
// accounting invariants.
func (s *System) takeSample(now sim.Time) {
	sm := obs.Sample{
		At:      now,
		Fired:   s.eng.Fired(),
		Pending: s.eng.Pending(),
		CPU:     make([]obs.CPUSample, len(s.cpus)),
		Node:    make([]obs.NodeSample, s.cfg.Nodes),
	}
	if s.opt.DebugChecks {
		// Structural invariants of the kernel state: the allocator's per-node
		// frame conservation and the VM's mapping consistency. Cheap relative
		// to a sample interval, and they catch corruption at the tick after
		// it happens rather than at the end of the run.
		if err := s.allocs.CheckInvariant(); err != nil {
			panic(fmt.Sprintf("core: allocator at %v: %v", now, err))
		}
		if err := s.vmm.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("core: vm at %v: %v", now, err))
		}
	}
	for i, c := range s.cpus {
		if s.opt.DebugChecks {
			if err := c.bd.CheckInvariants(); err != nil {
				panic(fmt.Sprintf("core: cpu%d ledger at %v: %v", i, now, err))
			}
		}
		cur := obs.CPUSample{
			Busy:  c.bd.NonIdle(),
			Idle:  c.bd.Idle,
			Pager: c.bd.Pager.Total(),
			Steps: c.steps,
		}
		sm.CPU[i] = cur.Sub(s.prevCPU[i])
		s.prevCPU[i] = cur
	}
	for n := 0; n < s.cfg.Nodes; n++ {
		free, base, replica := s.allocs.UsageOn(mem.NodeID(n))
		sm.Node[n] = obs.NodeSample{Free: free, Base: base, Replica: replica}
	}
	cs := s.counters.Stats()
	cur := obs.CounterSample{Recorded: cs.Recorded, Counted: cs.Counted, Hot: cs.Hot, Resets: cs.Resets}
	sm.Counters = cur.Sub(s.prevCtr)
	s.prevCtr = cur
	s.sampler.Add(sm)
}
