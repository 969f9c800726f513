package workload

import (
	"testing"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// TestFillMatchesNext drives two generators built from one seed through
// every process of the five paper workloads at scale 0.01: one through Fill
// and the consumer's decode (a Resolver, on the CPU the step runs on), the
// other through Next on the same CPUs. The CPU changes at random every few
// hundred steps, after the Fill twin's chunk was made, so deferred PerCPU
// picks resolve on a CPU Fill never saw. Steps, kernel flags and block
// durations must agree, and the streams must include a locality repeat of a
// PerCPU pick made on another CPU, which replays the pick's page.
func TestFillMatchesNext(t *testing.T) {
	const (
		steps = 30000
		chunk = 613 // not a divisor of anything, so chunks end anywhere
	)
	crossRepeats := 0
	for _, name := range Names() {
		build, _ := ByName(name)
		a, b := build(0.01, 5), build(0.01, 5)
		for pi := range a.Procs {
			fill, next := a.Procs[pi].Gen, b.Procs[pi].Gen
			r := sim.NewRand(uint64(pi) + 1)
			cpu, left := mem.CPUID(0), 0
			var (
				buf     = make([]Ref, chunk)
				blocks  []sim.Time
				n, pos  int
				bpos    int
				res     Resolver
				pickCPU [2]mem.CPUID // the CPU each mode's last deferred pick resolved on
				pick    [2]mem.GPage // and the page it resolved to
			)
			for i := 0; i < steps; i++ {
				if left == 0 {
					cpu, left = mem.CPUID(r.Intn(8)), 1+r.Intn(400)
				}
				left--
				if pos == n {
					n, blocks = fill.Fill(buf, blocks[:0])
					pos, bpos = 0, 0
				}
				ref := buf[pos]
				pos++
				if ref.Deferred() {
					mode := 0
					if ref.Kernel() {
						mode = 1
					}
					fix, off := ref&refFixMask, int(ref.Page())
					ref = res.Resolve(fill, ref, cpu)
					switch fix {
					case fixPick:
						// The pre-deferral PerCPU.next: offset off into
						// cpu's slice, clamped to the region.
						pc := fill.deferred[buf[pos-1]>>refSrcShift]
						per := max(pc.Reg.N/pc.CPUs, 1)
						idx := min(int(cpu)*per%pc.Reg.N+off, pc.Reg.N-1)
						if ref.Page() != pc.Reg.Page(idx) {
							t.Fatalf("%s proc %d step %d: pick at offset %d on cpu %d resolved to page %d, want %d",
								name, pi, i, off, cpu, ref.Page(), pc.Reg.Page(idx))
						}
						pickCPU[mode], pick[mode] = cpu, ref.Page()
					case fixRepeat:
						if ref.Page() != pick[mode] {
							t.Fatalf("%s proc %d step %d: repeat resolved to page %d, the pick was %d",
								name, pi, i, ref.Page(), pick[mode])
						}
						if pickCPU[mode] != cpu {
							crossRepeats++
						}
					}
				}
				got, want := ref.Step(), next.Next(cpu)
				if got != want {
					t.Fatalf("%s proc %d step %d on cpu %d: Fill gave %+v, Next %+v", name, pi, i, cpu, got, want)
				}
				switch want.Kind {
				case StepAccess:
					if ref.Kernel() != next.inKernel {
						t.Fatalf("%s proc %d step %d: Fill's kernel flag %v, Next's %v", name, pi, i, ref.Kernel(), next.inKernel)
					}
				case StepBlock:
					if blocks[bpos] != next.lastBlock {
						t.Fatalf("%s proc %d step %d: Fill's block %v, Next's %v", name, pi, i, blocks[bpos], next.lastBlock)
					}
					bpos++
				case StepExit:
					if pos != n {
						t.Fatalf("%s proc %d step %d: Fill went on past the exit", name, pi, i)
					}
					i = steps
				}
			}
		}
	}
	if crossRepeats == 0 {
		t.Fatal("no locality repeat of a PerCPU pick ran on another CPU than the pick")
	}
}
