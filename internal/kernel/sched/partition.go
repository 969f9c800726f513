package sched

import "ccnuma/internal/mem"

// Partition implements space partitioning in the style of scheduler
// activations / process control: the machine's CPUs are divided into
// contiguous ranges, one per active job, sized proportionally to the job's
// process count. When a job enters or leaves, the ranges are recomputed and
// every job's processes are redistributed over its new range — this
// redistribution is exactly the process movement that makes static placement
// hard for the Splash workload (Section 6).
type Partition struct {
	queues
	cpus int
	jobs map[int][]*Proc // job id -> member processes
	home map[*Proc]mem.CPUID
}

// NewPartition builds a space-partitioning scheduler.
func NewPartition(cpus int) *Partition {
	return &Partition{
		queues: newQueues(cpus),
		cpus:   cpus,
		jobs:   map[int][]*Proc{},
		home:   map[*Proc]mem.CPUID{},
	}
}

// Add introduces a process and repartitions the machine (job sizes changed).
func (s *Partition) Add(p *Proc) {
	s.jobs[p.Job] = append(s.jobs[p.Job], p)
	s.repartition()
	p.LastCPU = s.home[p]
	s.push(s.home[p], p)
}

// Exit removes the process; if its job emptied, the machine is
// repartitioned and the remaining jobs spread out.
func (s *Partition) Exit(p *Proc) {
	if p.state == stateReady {
		s.remove(p)
	}
	p.state = stateExited
	members := s.jobs[p.Job]
	for i, x := range members {
		if x == p {
			s.jobs[p.Job] = append(members[:i], members[i+1:]...)
			break
		}
	}
	delete(s.home, p)
	if len(s.jobs[p.Job]) == 0 {
		delete(s.jobs, p.Job)
		s.repartition()
	}
}

// jobOrder returns active job ids in ascending order for deterministic
// range assignment.
func (s *Partition) jobOrder() []int {
	ids := make([]int, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; job count is tiny
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// repartition recomputes each job's CPU range and re-homes every process.
// Ready processes move to their new home queue immediately; running or
// blocked processes pick up the new home on their next dispatch.
func (s *Partition) repartition() {
	ids := s.jobOrder()
	if len(ids) == 0 {
		return
	}
	total := 0
	for _, id := range ids {
		total += len(s.jobs[id])
	}
	start := 0
	remaining := s.cpus
	for k, id := range ids {
		var width int
		if k == len(ids)-1 {
			width = remaining
		} else {
			width = s.cpus * len(s.jobs[id]) / total
			if width == 0 {
				width = 1
			}
			if width > remaining-(len(ids)-1-k) {
				width = remaining - (len(ids) - 1 - k)
			}
		}
		for i, p := range s.jobs[id] {
			cpu := mem.CPUID(start + i%width)
			s.rehome(p, cpu)
		}
		start += width
		remaining -= width
	}
}

func (s *Partition) rehome(p *Proc, cpu mem.CPUID) {
	old, had := s.home[p]
	s.home[p] = cpu
	if had && old == cpu {
		return
	}
	if p.state == stateReady {
		s.remove(p)
		s.push(cpu, p)
	}
}

// MakeRunnable queues the process on its job's home CPU.
func (s *Partition) MakeRunnable(p *Proc) { s.push(s.home[p], p) }

// Next consults only the local queue: partitions do not steal across job
// boundaries.
func (s *Partition) Next(cpu mem.CPUID) *Proc {
	p := s.pop(cpu)
	if p == nil {
		return nil
	}
	return s.dispatch(p, cpu)
}

// Yield re-queues the process on its (possibly re-homed) CPU.
func (s *Partition) Yield(p *Proc) { s.push(s.home[p], p) }

// Block marks the process blocked.
func (s *Partition) Block(p *Proc) { p.state = stateBlocked }

// Migrations returns cross-CPU dispatch count.
func (s *Partition) Migrations() uint64 { return s.migrations }

// Home returns a process's current home CPU (test hook).
func (s *Partition) Home(p *Proc) mem.CPUID { return s.home[p] }
