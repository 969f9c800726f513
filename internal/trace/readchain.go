package trace

import "ccnuma/internal/mem"

// A read chain (Figure 4) is a string of read misses to a page from one
// processor, terminated by a write from any processor to that page. Long
// chains mark pages that would profit from replication.

// ChainAnalysis is the Figure-4 result: for each threshold, the fraction of
// data read misses that belong to chains of at least that length.
type ChainAnalysis struct {
	// Thresholds are the chain-length cut-offs (the paper's X axis).
	Thresholds []int
	// FractionAtLeast[i] is the fraction of data misses in chains of length
	// >= Thresholds[i].
	FractionAtLeast []float64
	// TotalDataMisses is the denominator (read misses considered).
	TotalDataMisses uint64
}

// DefaultThresholds mirrors the paper's log-scale X axis.
var DefaultThresholds = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// ReadChains computes the Figure-4 distribution over the trace's user-mode
// data cache misses. Instruction fetches are excluded (code is trivially
// read-only); TLB records are ignored.
//
// Open chains are kept per page, so a write closes its page's chains in one
// lookup: the cost is linear in the trace. A closed chain adds its length
// to every threshold it reaches; the sums do not depend on the order in
// which chains close.
func ReadChains(t *Trace, thresholds []int) ChainAnalysis {
	if len(thresholds) == 0 {
		thresholds = DefaultThresholds
	}
	// chain is one processor's open read chain on a page.
	type chain struct {
		cpu mem.CPUID
		n   uint64
	}
	open := map[mem.GPage][]chain{}
	out := ChainAnalysis{
		Thresholds:      thresholds,
		FractionAtLeast: make([]float64, len(thresholds)),
	}
	in := make([]uint64, len(thresholds))
	closeAll := func(cs []chain) {
		for _, c := range cs {
			out.TotalDataMisses += c.n
			for i, th := range thresholds {
				if c.n >= uint64(th) {
					in[i] += c.n
				}
			}
		}
	}

	for _, r := range t.Records {
		if r.Src != CacheMiss || r.Kind.IsInstr() {
			continue
		}
		cs := open[r.Page]
		if r.Kind.IsWrite() {
			// A write from any processor terminates every open chain on the
			// page; the emptied slice is kept for the page's next chains.
			closeAll(cs)
			if len(cs) > 0 {
				open[r.Page] = cs[:0]
			}
			continue
		}
		i := 0
		for i < len(cs) && cs[i].cpu != r.CPU {
			i++
		}
		if i == len(cs) {
			cs = append(cs, chain{cpu: r.CPU})
			open[r.Page] = cs
		}
		cs[i].n++
	}
	for _, cs := range open {
		closeAll(cs)
	}

	if out.TotalDataMisses == 0 {
		return out
	}
	for i := range in {
		out.FractionAtLeast[i] = float64(in[i]) / float64(out.TotalDataMisses)
	}
	return out
}

// FractionAt returns the fraction of misses in chains >= length, using the
// nearest computed threshold at or below length.
func (c ChainAnalysis) FractionAt(length int) float64 {
	best := 0.0
	found := false
	for i, th := range c.Thresholds {
		if th <= length {
			best = c.FractionAtLeast[i]
			found = true
		}
	}
	if !found && len(c.FractionAtLeast) > 0 {
		return c.FractionAtLeast[0]
	}
	return best
}
