package trace

import (
	"testing"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// readChainsQuadratic is ReadChains as it was first written: open chains
// keyed by (page, cpu), and every write ranging over all of them to close
// the ones on its page. It is the reference the linear version must match.
func readChainsQuadratic(t *Trace, thresholds []int) ChainAnalysis {
	if len(thresholds) == 0 {
		thresholds = DefaultThresholds
	}
	type key struct {
		page mem.GPage
		cpu  mem.CPUID
	}
	open := map[key]uint64{}
	var chains []uint64
	closeChain := func(k key) {
		if n := open[k]; n > 0 {
			chains = append(chains, n)
			delete(open, k)
		}
	}
	for _, r := range t.Records {
		if r.Src != CacheMiss || r.Kind.IsInstr() {
			continue
		}
		if r.Kind.IsWrite() {
			for k := range open {
				if k.page == r.Page {
					closeChain(k)
				}
			}
			continue
		}
		open[key{r.Page, r.CPU}]++
	}
	for k := range open {
		closeChain(k)
	}
	var total uint64
	for _, n := range chains {
		total += n
	}
	out := ChainAnalysis{
		Thresholds:      thresholds,
		FractionAtLeast: make([]float64, len(thresholds)),
		TotalDataMisses: total,
	}
	if total == 0 {
		return out
	}
	for i, th := range thresholds {
		var in uint64
		for _, n := range chains {
			if n >= uint64(th) {
				in += n
			}
		}
		out.FractionAtLeast[i] = float64(in) / float64(total)
	}
	return out
}

// randomMissTrace draws n miss records over pages pages and cpus CPUs, a
// writeFrac share of them data writes, mixed with instruction fetches and
// TLB misses that ReadChains must skip.
func randomMissTrace(r *sim.Rand, n, pages, cpus int, writeFrac float64) *Trace {
	tr := &Trace{}
	for i := 0; i < n; i++ {
		rec := Record{At: sim.Time(i), Page: mem.GPage(r.Intn(pages)),
			CPU: mem.CPUID(r.Intn(cpus)), Kind: mem.DataRead}
		switch u := r.Float64(); {
		case u < writeFrac:
			rec.Kind = mem.DataWrite
		case u < writeFrac+0.05:
			rec.Kind = mem.InstrFetch
		}
		if r.Intn(20) == 0 {
			rec.Src = TLBMiss
		}
		tr.Append(rec)
	}
	return tr
}

// TestReadChainsMatchesQuadratic checks the per-page ReadChains against the
// reference algorithm on random traces of every density, from pages read by
// one CPU and never written to pages written on most misses.
func TestReadChainsMatchesQuadratic(t *testing.T) {
	r := sim.NewRand(5)
	ths := [][]int{nil, {1, 3, 7}, {0, 2, 1000}}
	for i := 0; i < 300; i++ {
		tr := randomMissTrace(r, 1+r.Intn(4000), 1+r.Intn(64), 1+r.Intn(16), r.Float64()*0.6)
		th := ths[i%len(ths)]
		got, want := ReadChains(tr, th), readChainsQuadratic(tr, th)
		if got.TotalDataMisses != want.TotalDataMisses {
			t.Fatalf("trace %d: total %d, want %d", i, got.TotalDataMisses, want.TotalDataMisses)
		}
		for k := range want.FractionAtLeast {
			if got.FractionAtLeast[k] != want.FractionAtLeast[k] || got.Thresholds[k] != want.Thresholds[k] {
				t.Fatalf("trace %d, threshold %d: %v, want %v", i, want.Thresholds[k],
					got.FractionAtLeast[k], want.FractionAtLeast[k])
			}
		}
	}
}

// BenchmarkReadChains runs ReadChains over a synthetic write-heavy trace:
// 10^6 data misses on 4096 pages from 32 CPUs, a fifth of them writes, so
// many chains are open whenever a write arrives.
func BenchmarkReadChains(b *testing.B) {
	tr := randomMissTrace(sim.NewRand(1), 1_000_000, 4096, 32, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReadChains(tr, DefaultThresholds)
	}
}
