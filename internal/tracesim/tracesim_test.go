package tracesim

import (
	"testing"

	"ccnuma/internal/mem"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/trace"
)

func rec(at int, cpu, page int, kind mem.AccessKind) trace.Record {
	return trace.Record{At: sim.Time(at), CPU: mem.CPUID(cpu), Page: mem.GPage(page), Kind: kind}
}

func tlbRec(at int, cpu, page int) trace.Record {
	r := rec(at, cpu, page, mem.DataRead)
	r.Src = trace.TLBMiss
	return r
}

func cfg4() Config { return DefaultConfig(4) }

func TestEmptyTrace(t *testing.T) {
	out := Simulate(&trace.Trace{}, cfg4(), MigRep)
	if out.Total() != 0 || out.LocalMisses+out.RemoteMisses != 0 {
		t.Fatalf("non-zero outcome on empty trace: %+v", out)
	}
}

func TestFTPlacesAtFirstToucher(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(rec(0, 2, 5, mem.DataRead)) // first touch by cpu2
	tr.Append(rec(1, 2, 5, mem.DataRead))
	tr.Append(rec(2, 0, 5, mem.DataRead)) // remote
	out := Simulate(tr, cfg4(), FT)
	if out.LocalMisses != 2 || out.RemoteMisses != 1 {
		t.Fatalf("FT local/remote = %d/%d, want 2/1", out.LocalMisses, out.RemoteMisses)
	}
	if out.StallLocal != 600 || out.StallRemote != 1200 {
		t.Fatalf("stall = %v/%v", out.StallLocal, out.StallRemote)
	}
}

func TestRRPlacesByPageNumber(t *testing.T) {
	tr := &trace.Trace{}
	// Page 6 mod 4 = node 2; cpu 2 hits locally, cpu 1 remotely.
	tr.Append(rec(0, 2, 6, mem.DataRead))
	tr.Append(rec(1, 1, 6, mem.DataRead))
	out := Simulate(tr, cfg4(), RR)
	if out.LocalMisses != 1 || out.RemoteMisses != 1 {
		t.Fatalf("RR local/remote = %d/%d", out.LocalMisses, out.RemoteMisses)
	}
}

func TestPFPicksMajorityNode(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 3, mem.DataRead)) // first touch cpu0, but majority cpu3
	for i := 1; i <= 5; i++ {
		tr.Append(rec(i, 3, 3, mem.DataRead))
	}
	ft := Simulate(tr, cfg4(), FT)
	pf := Simulate(tr, cfg4(), PF)
	if pf.LocalMisses != 5 || pf.RemoteMisses != 1 {
		t.Fatalf("PF local/remote = %d/%d, want 5/1", pf.LocalMisses, pf.RemoteMisses)
	}
	if pf.Total() >= ft.Total() {
		t.Fatal("PF should beat FT when the first toucher is not the majority user")
	}
}

func hotTrace(cpu, page, n int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Append(rec(i*1000, cpu, page, mem.DataRead))
	}
	return tr
}

func TestMigrationMovesHotRemotePage(t *testing.T) {
	tr := &trace.Trace{}
	// Page first touched by cpu0; cpu1 then misses 200 times.
	tr.Append(rec(0, 0, 1, mem.DataRead))
	for i := 1; i <= 200; i++ {
		tr.Append(rec(i*1000, 1, 1, mem.DataRead))
	}
	c := cfg4()
	out := Simulate(tr, c, Migr)
	if out.Migrations == 0 {
		t.Fatal("hot remote page was not migrated")
	}
	// After the migration (trigger 128), remaining misses are local.
	if out.LocalMisses < 50 {
		t.Fatalf("local misses after migration = %d", out.LocalMisses)
	}
	if out.Overhead != sim.Time(out.Migrations)*c.MoveCost {
		t.Fatalf("overhead = %v for %d moves", out.Overhead, out.Migrations)
	}
}

func TestReplicationForReadSharedPage(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 1, mem.DataRead))
	// Two remote CPUs read-share the page heavily.
	for i := 1; i <= 200; i++ {
		tr.Append(rec(i*1000, 1, 1, mem.DataRead))
		tr.Append(rec(i*1000+1, 2, 1, mem.DataRead))
	}
	out := Simulate(tr, cfg4(), MigRep)
	if out.Replications == 0 {
		t.Fatal("read-shared page was not replicated")
	}
	if out.Migrations != 0 {
		t.Fatalf("read-shared page was migrated %d times", out.Migrations)
	}
	// Multi-replicate should cover both sharing nodes in one action.
	if out.Replications < 2 {
		t.Fatalf("replications = %d, want >= 2 (multi-node)", out.Replications)
	}
}

func TestWriteSharedPageLeftAlone(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 1, mem.DataRead))
	for i := 1; i <= 600; i++ {
		k := mem.DataRead
		if i%2 == 0 {
			k = mem.DataWrite
		}
		tr.Append(rec(i*100, 1+i%3, 1, k))
	}
	out := Simulate(tr, cfg4(), MigRep)
	if out.Replications != 0 {
		t.Fatalf("write-shared page replicated %d times", out.Replications)
	}
	if out.HotPages == 0 {
		t.Fatal("page never went hot (test not exercising the decision)")
	}
}

func TestCollapseOnWriteToReplicated(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 1, mem.DataRead))
	for i := 1; i <= 200; i++ {
		tr.Append(rec(i*1000, 1, 1, mem.DataRead))
		tr.Append(rec(i*1000+1, 2, 1, mem.DataRead))
	}
	tr.Append(rec(300000, 3, 1, mem.DataWrite))
	out := Simulate(tr, cfg4(), MigRep)
	if out.Replications == 0 {
		t.Fatal("setup failed: no replication")
	}
	if out.Collapses != 1 {
		t.Fatalf("collapses = %d, want 1", out.Collapses)
	}
}

func TestMigrateThresholdFreezes(t *testing.T) {
	// A page ping-ponged between two CPUs within one interval migrates a
	// bounded number of times (migrate threshold 1 allows two migrations
	// per interval: counts 0 and 1 pass, 2 is frozen).
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 1, mem.DataRead))
	at := 1000
	for round := 0; round < 6; round++ {
		cpu := 1 + round%2
		for i := 0; i < 200; i++ {
			tr.Append(rec(at, cpu, 1, mem.DataRead))
			at += 100 // everything inside one 100ms reset interval
		}
	}
	out := Simulate(tr, cfg4(), Migr)
	if out.Migrations > 2 {
		t.Fatalf("migrations = %d, want <= 2 (frozen after threshold)", out.Migrations)
	}
}

func TestResetIntervalUnfreezes(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 1, mem.DataRead))
	at := sim.Time(1000)
	// Each round in its own reset interval: migrations keep happening.
	for round := 0; round < 4; round++ {
		cpu := 1 + round%2
		base := sim.Time(round) * 100 * sim.Millisecond
		for i := 0; i < 200; i++ {
			tr.Append(trace.Record{At: base + at + sim.Time(i), CPU: mem.CPUID(cpu), Page: 1, Kind: mem.DataRead})
		}
	}
	out := Simulate(tr, cfg4(), Migr)
	if out.Migrations < 3 {
		t.Fatalf("migrations = %d, want >= 3 (reset should unfreeze)", out.Migrations)
	}
}

func TestTLBMetricIgnoresCacheRecords(t *testing.T) {
	tr := hotTrace(1, 1, 300) // cache misses only
	tr.Records = append([]trace.Record{rec(0, 0, 1, mem.DataRead)}, tr.Records...)
	c := cfg4()
	c.Metric = policy.FullTLB
	out := Simulate(tr, c, MigRep)
	if out.Migrations+out.Replications != 0 {
		t.Fatal("TLB metric acted on cache-miss records")
	}
	// Stall is still accounted from cache misses.
	if out.RemoteMisses == 0 {
		t.Fatal("stall accounting lost")
	}
}

func TestTLBMetricActsOnTLBRecords(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 1, mem.DataRead))
	for i := 1; i <= 200; i++ {
		tr.Append(tlbRec(i*1000, 1, 1))
	}
	c := cfg4()
	c.Metric = policy.FullTLB
	out := Simulate(tr, c, MigRep)
	if out.Migrations == 0 {
		t.Fatal("TLB metric did not trigger on TLB records")
	}
}

func TestSampledCacheApproximatesFull(t *testing.T) {
	// A strongly hot page triggers under both FC and SC; SC just needs 10x
	// the misses.
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 1, mem.DataRead))
	for i := 1; i <= 3000; i++ {
		tr.Append(rec(i*100, 1, 1, mem.DataRead))
	}
	c := cfg4()
	fc := Simulate(tr, c, MigRep)
	c.Metric = policy.SampledCache
	sc := Simulate(tr, c, MigRep)
	if fc.Migrations == 0 || sc.Migrations == 0 {
		t.Fatalf("FC/SC migrations = %d/%d", fc.Migrations, sc.Migrations)
	}
	// SC acts later but the bulk of misses still becomes local.
	if f := sc.LocalFraction(); f < 0.5 {
		t.Fatalf("SC local fraction = %v", f)
	}
}

func TestStaticPoliciesNeverMove(t *testing.T) {
	tr := hotTrace(1, 1, 500)
	for _, k := range []PolicyKind{RR, FT, PF} {
		out := Simulate(tr, cfg4(), k)
		if out.Migrations+out.Replications+out.Collapses != 0 || out.Overhead != 0 {
			t.Fatalf("%v moved pages", k)
		}
	}
}

func TestOtherTimeIncluded(t *testing.T) {
	tr := hotTrace(0, 0, 10)
	c := cfg4()
	c.OtherTime = 5 * sim.Millisecond
	out := Simulate(tr, c, FT)
	if out.Total() != c.OtherTime+out.StallLocal+out.StallRemote {
		t.Fatal("OtherTime not included in total")
	}
}

func TestSimulateAllOrder(t *testing.T) {
	tr := hotTrace(0, 0, 10)
	outs := SimulateAll(tr, cfg4())
	if len(outs) != 6 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	want := []PolicyKind{RR, FT, PF, Migr, Repl, MigRep}
	for i, o := range outs {
		if o.Policy != want[i] {
			t.Fatalf("order mismatch at %d: %v", i, o.Policy)
		}
	}
}

func TestSimulateMetricsOrder(t *testing.T) {
	tr := hotTrace(0, 0, 10)
	outs := SimulateMetrics(tr, cfg4())
	if len(outs) != 4 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for i, m := range []policy.Metric{policy.FullCache, policy.SampledCache, policy.FullTLB, policy.SampledTLB} {
		if outs[i].Metric != m {
			t.Fatalf("metric order mismatch at %d", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 2000; i++ {
		tr.Append(rec(i*500, i%4, i%17, mem.AccessKind(i%3)))
	}
	a := Simulate(tr, cfg4(), MigRep)
	b := Simulate(tr, cfg4(), MigRep)
	if a != b {
		t.Fatal("trace simulation not deterministic")
	}
}

// Property: the overhead ledger is exactly moves x MoveCost, and the
// local/remote miss counts always sum to the trace's cache-miss count.
func TestAccountingExactProperty(t *testing.T) {
	rng := sim.NewRand(17)
	for round := 0; round < 20; round++ {
		tr := &trace.Trace{}
		var cacheMisses uint64
		for i := 0; i < 3000; i++ {
			k := mem.AccessKind(rng.Intn(3))
			rec := trace.Record{
				At:   sim.Time(i) * 500,
				CPU:  mem.CPUID(rng.Intn(8)),
				Page: mem.GPage(rng.Intn(20)),
				Kind: k,
			}
			if rng.Bool(0.2) {
				rec.Src = trace.TLBMiss
			} else {
				cacheMisses++
			}
			tr.Append(rec)
		}
		cfg := DefaultConfig(8)
		cfg.Params = cfg.Params.WithTrigger(32)
		for _, kind := range Kinds {
			o := Simulate(tr, cfg, kind)
			if o.LocalMisses+o.RemoteMisses != cacheMisses {
				t.Fatalf("%v: misses %d+%d != %d", kind, o.LocalMisses, o.RemoteMisses, cacheMisses)
			}
			moves := o.Migrations + o.Replications + o.Collapses
			if o.Overhead != sim.Time(moves)*cfg.MoveCost {
				t.Fatalf("%v: overhead %v != %d moves x %v", kind, o.Overhead, moves, cfg.MoveCost)
			}
			if o.StallLocal != sim.Time(o.LocalMisses)*cfg.LocalLatency ||
				o.StallRemote != sim.Time(o.RemoteMisses)*cfg.RemoteLatency {
				t.Fatalf("%v: stall ledger inconsistent", kind)
			}
		}
	}
}

func TestCounterGroupingStillActs(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(rec(0, 0, 1, mem.DataRead))
	for i := 1; i <= 400; i++ {
		tr.Append(rec(i*1000, 1, 1, mem.DataRead))
		tr.Append(rec(i*1000+1, 2, 1, mem.DataRead))
	}
	cfg := cfg4()
	cfg.CounterGroup = 2
	out := Simulate(tr, cfg, MigRep)
	if out.Migrations+out.Replications == 0 {
		t.Fatal("grouped counters never triggered")
	}
}
