package workload

import (
	"ccnuma/internal/mem"
)

// Ref is one generator step packed into 8 bytes, as Gen.Fill writes it: the
// page, line and access kind of a reference, the step's kind, whether it
// executes in kernel mode, and a fix-up code for a page that depends on the
// CPU the step runs on.
//
// A PerCPU pick is the only CPU-dependent part of a process's step stream.
// Its draws do not depend on the CPU, so Fill writes the pick's offset into
// the running CPU's slice in the page field and marks the ref deferred; the
// consumer resolves it with Resolver.Resolve once the CPU is known. A
// locality repeat of a deferred pick replays the page the consumer resolved
// for that pick, on whatever CPU the process then runs.
type Ref uint64

// The fields of a Ref, low bits first.
const (
	refLineShift   = 32
	refAccessShift = 40
	refKindShift   = 48
	refKernelBit   = Ref(1) << 50
	refFixShift    = 51
	refSrcShift    = 56

	refPageMask = Ref(1)<<refLineShift - 1
	refFixMask  = Ref(3) << refFixShift

	// fixPick marks a deferred PerCPU pick: the page field holds the offset
	// and the top byte the index of the source in Gen.deferred.
	fixPick = Ref(1) << refFixShift
	// fixRepeat marks a locality repeat of a deferred pick.
	fixRepeat = Ref(2) << refFixShift
)

func accessRef(page mem.GPage, line uint8, access mem.AccessKind) Ref {
	return Ref(page) | Ref(line)<<refLineShift | Ref(access)<<refAccessShift
}

// Kind is the step's kind.
func (r Ref) Kind() StepKind { return StepKind(r >> refKindShift & 3) }

// Page is the referenced page. A deferred ref's page is not known until it
// is resolved.
func (r Ref) Page() mem.GPage { return mem.GPage(r & refPageMask) }

// Line is the line within the page.
func (r Ref) Line() uint8 { return uint8(r >> refLineShift) }

// Access is the reference's access kind.
func (r Ref) Access() mem.AccessKind { return mem.AccessKind(r >> refAccessShift) }

// Kernel reports whether the step executes in kernel mode.
func (r Ref) Kernel() bool { return r&refKernelBit != 0 }

// Deferred reports whether the ref's page depends on the CPU it runs on and
// must go through Resolver.Resolve before use.
func (r Ref) Deferred() bool { return r&refFixMask != 0 }

// Step unpacks a resolved ref.
func (r Ref) Step() Step {
	return Step{Kind: r.Kind(), Page: r.Page(), Line: r.Line(), Access: r.Access()}
}

// Resolver is the consumer's side of one Gen's Fill stream: the pages it
// resolved for deferred picks, user and kernel, which their locality
// repeats replay. It resolves the refs in stream order.
type Resolver struct {
	last [2]mem.GPage
}

// Resolve fixes a deferred ref's page for the process running on cpu.
func (z *Resolver) Resolve(g *Gen, r Ref, cpu mem.CPUID) Ref {
	mode := 0
	if r.Kernel() {
		mode = 1
	}
	if r&refFixMask == fixPick {
		z.last[mode] = g.deferred[r>>refSrcShift].page(cpu, r.Page())
	}
	return r&^(refPageMask|refFixMask) | Ref(z.last[mode])
}
