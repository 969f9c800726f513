// Package sched provides the three scheduling disciplines the paper's
// workloads use (Section 6): UNIX priority scheduling with cache affinity
// (engineering, pmake), hard pinning of processes to processors (raytrace,
// database), and space partitioning in the style of scheduler activations
// (the multiprogrammed Splash workload). Process movement between CPUs is
// what creates migration opportunities for the policy, so the schedulers
// also count cross-CPU moves.
package sched

import (
	"fmt"

	"ccnuma/internal/mem"
)

// Proc is a schedulable process.
type Proc struct {
	ID mem.ProcID
	// Pin fixes the process to a CPU when >= 0.
	Pin mem.CPUID
	// Job groups processes for space partitioning.
	Job int
	// LastCPU is where the process last ran (cache affinity; a change is a
	// process migration).
	LastCPU mem.CPUID

	state procState
}

type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateBlocked
	stateExited
)

// Scheduler places runnable processes on CPUs.
type Scheduler interface {
	// Add introduces a new runnable process.
	Add(p *Proc)
	// MakeRunnable marks a blocked process runnable again.
	MakeRunnable(p *Proc)
	// Next picks the process to run on cpu, or nil to idle. The returned
	// process is marked running.
	Next(cpu mem.CPUID) *Proc
	// Yield returns a running process to the ready state (quantum expiry).
	Yield(p *Proc)
	// Block marks a running process blocked (I/O, synchronization).
	Block(p *Proc)
	// Exit removes a process permanently.
	Exit(p *Proc)
	// Migrations returns how many times a process started on a CPU other
	// than its previous one.
	Migrations() uint64
}

// queues is the shared per-CPU ready-queue machinery.
type queues struct {
	ready      [][]*Proc
	migrations uint64
}

func newQueues(cpus int) queues {
	return queues{ready: make([][]*Proc, cpus)}
}

func (q *queues) push(cpu mem.CPUID, p *Proc) {
	p.state = stateReady
	q.ready[cpu] = append(q.ready[cpu], p)
}

func (q *queues) pop(cpu mem.CPUID) *Proc {
	qq := q.ready[cpu]
	if len(qq) == 0 {
		return nil
	}
	p := qq[0]
	copy(qq, qq[1:])
	q.ready[cpu] = qq[:len(qq)-1]
	return p
}

func (q *queues) dispatch(p *Proc, cpu mem.CPUID) *Proc {
	if p.state != stateReady {
		panic(fmt.Sprintf("sched: dispatching proc %d in state %d", p.ID, p.state))
	}
	if p.LastCPU != cpu {
		q.migrations++
	}
	p.LastCPU = cpu
	p.state = stateRunning
	return p
}

// remove deletes p from whatever queue holds it (used by Exit on a ready
// process and by repartitioning).
func (q *queues) remove(p *Proc) {
	for c := range q.ready {
		for i, x := range q.ready[c] {
			if x == p {
				q.ready[c] = append(q.ready[c][:i], q.ready[c][i+1:]...)
				return
			}
		}
	}
}

// Affinity is UNIX priority scheduling with cache affinity: a runnable
// process queues on the CPU it last ran on; a process waking to a busy CPU
// is placed on an idle one instead (wakeup balancing), and an idle CPU
// steals from queues with sustained backlog. These moves are what make a
// process's pages remote (the migration opportunity).
type Affinity struct {
	queues
	// idlePolls counts consecutive empty Next calls per CPU; a lone waiter
	// is only stolen after LoneStealPolls of them, so short scheduling gaps
	// keep affinity while sustained idleness rebalances.
	idlePolls []int
	// LoneStealPolls is the idle-poll threshold before a lone waiter is
	// stolen (default 100, i.e. ~10ms of idle polling in the machine).
	LoneStealPolls int
}

// NewAffinity builds an affinity scheduler for cpus processors.
func NewAffinity(cpus int) *Affinity {
	return &Affinity{queues: newQueues(cpus), idlePolls: make([]int, cpus), LoneStealPolls: 100}
}

// Add queues the process on its LastCPU (set it before Add for initial
// placement).
func (s *Affinity) Add(p *Proc) { s.push(p.LastCPU, p) }

// MakeRunnable re-queues a blocked process on its last CPU; idle CPUs pull
// it over via stealing if the home stays busy.
func (s *Affinity) MakeRunnable(p *Proc) { s.push(p.LastCPU, p) }

// Next runs the local queue first, then steals from the longest queue.
// A backlog of two or more waiters is stolen immediately (work conservation)
// while a lone waiter is only stolen after sustained idleness — cache
// affinity makes moving a briefly-waiting process a loss [VaZ91].
func (s *Affinity) Next(cpu mem.CPUID) *Proc {
	if p := s.pop(cpu); p != nil {
		s.idlePolls[cpu] = 0
		return s.dispatch(p, cpu)
	}
	s.idlePolls[cpu]++
	floor := 1
	if s.idlePolls[cpu] >= s.LoneStealPolls {
		floor = 0
	}
	best, bestLen := -1, floor
	for c := range s.ready {
		if l := len(s.ready[c]); l > bestLen {
			best, bestLen = c, l
		}
	}
	if best < 0 {
		return nil
	}
	s.idlePolls[cpu] = 0
	return s.dispatch(s.pop(mem.CPUID(best)), cpu)
}

// Yield re-queues an expired process on the CPU it ran on.
func (s *Affinity) Yield(p *Proc) { s.push(p.LastCPU, p) }

// Block marks the process blocked.
func (s *Affinity) Block(p *Proc) { p.state = stateBlocked }

// Exit removes the process.
func (s *Affinity) Exit(p *Proc) {
	if p.state == stateReady {
		s.remove(p)
	}
	p.state = stateExited
}

// Rebalance moves one waiting process from the most loaded ready queue to
// the least loaded one. The machine invokes it periodically, modelling the
// slow shuffle UNIX priority decay produces in a multiprogrammed system —
// the process movement that strands private pages on old nodes.
func (s *Affinity) Rebalance() bool {
	longest, ln := -1, 0
	shortest, sn := -1, 1<<30
	for c := range s.ready {
		if l := len(s.ready[c]); l > ln {
			longest, ln = c, l
		}
		if l := len(s.ready[c]); l < sn {
			shortest, sn = c, l
		}
	}
	if longest < 0 || shortest < 0 || longest == shortest || ln <= sn {
		return false
	}
	p := s.pop(mem.CPUID(longest))
	if p == nil {
		return false
	}
	s.push(mem.CPUID(shortest), p)
	return true
}

// Migrations returns cross-CPU dispatch count.
func (s *Affinity) Migrations() uint64 { return s.migrations }

// Pinned runs each process only on its Pin CPU (raytrace's one-process-per-
// processor and the database's engine-per-CPU setups).
type Pinned struct {
	queues
}

// NewPinned builds a pinned scheduler.
func NewPinned(cpus int) *Pinned {
	return &Pinned{queues: newQueues(cpus)}
}

// Add queues the process on its pinned CPU.
func (s *Pinned) Add(p *Proc) {
	if p.Pin < 0 {
		panic("sched: unpinned proc on pinned scheduler")
	}
	p.LastCPU = p.Pin
	s.push(p.Pin, p)
}

// MakeRunnable re-queues on the pin.
func (s *Pinned) MakeRunnable(p *Proc) { s.push(p.Pin, p) }

// Next only consults the local queue.
func (s *Pinned) Next(cpu mem.CPUID) *Proc {
	p := s.pop(cpu)
	if p == nil {
		return nil
	}
	return s.dispatch(p, cpu)
}

// Yield re-queues on the pin.
func (s *Pinned) Yield(p *Proc) { s.push(p.Pin, p) }

// Block marks the process blocked.
func (s *Pinned) Block(p *Proc) { p.state = stateBlocked }

// Exit removes the process.
func (s *Pinned) Exit(p *Proc) {
	if p.state == stateReady {
		s.remove(p)
	}
	p.state = stateExited
}

// Migrations is always zero for pinned scheduling.
func (s *Pinned) Migrations() uint64 { return s.migrations }
