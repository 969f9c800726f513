package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(at int64, page uint32, cpu uint8, kind uint8, kernel bool, tlbm bool) bool {
		if at < 0 {
			at = -at
		}
		r := Record{
			At:     sim.Time(at),
			Page:   mem.GPage(page),
			CPU:    mem.CPUID(cpu),
			Kind:   mem.AccessKind(kind % 3),
			Kernel: kernel,
		}
		if tlbm {
			r.Src = TLBMiss
		}
		var buf [recordSize]byte
		encode(buf[:], r)
		return decode(buf[:]) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := &Trace{}
	rng := sim.NewRand(1)
	for i := 0; i < 1000; i++ {
		tr.Append(Record{
			At:     sim.Time(i * 10),
			Page:   mem.GPage(rng.Intn(100)),
			CPU:    mem.CPUID(rng.Intn(8)),
			Kind:   mem.AccessKind(rng.Intn(3)),
			Kernel: rng.Bool(0.3),
			Src:    Source(rng.Intn(2)),
		})
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 1000*recordSize {
		t.Fatalf("encoded size = %d, want %d", buf.Len(), 1000*recordSize)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadRejectsShortRecord(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, recordSize+3))); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// TestValidateRejectsUnsimulatableTraces: a lone record naming page
// 0xfffffff0 would size the policy simulator's tables at 2^32 pages, an
// out-of-order pair breaks its time-order assumption, and a CPU the machine
// does not have would be folded silently onto some node; all are refused.
func TestValidateRejectsUnsimulatableTraces(t *testing.T) {
	var buf [recordSize]byte
	encode(buf[:], Record{At: 1, Page: 0xfffffff0})
	huge, err := Read(bytes.NewReader(buf[:]))
	if err != nil {
		t.Fatal(err)
	}
	if err := huge.Validate(8); err == nil {
		t.Error("page 0xfffffff0 accepted")
	}
	unordered := &Trace{}
	unordered.Append(readRec(9, 0, 1))
	unordered.Append(readRec(5, 1, 2))
	if err := unordered.Validate(8); err == nil {
		t.Error("out-of-order records accepted")
	}
	ok := &Trace{}
	ok.Append(readRec(5, 0, MaxPages-1))
	ok.Append(readRec(5, 1, 0))
	ok.Append(readRec(9, 1, 2))
	ok.Append(readRec(9, 7, 2))
	if err := ok.Validate(8); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if err := ok.Validate(7); err == nil {
		t.Error("CPU 7 accepted on a 7-CPU machine")
	}
	var cpu [recordSize]byte
	encode(cpu[:], Record{At: 1, CPU: 200})
	foreign, err := Read(bytes.NewReader(cpu[:]))
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.Validate(8); err == nil {
		t.Error("CPU 200 accepted on an 8-CPU machine")
	}
}

func TestFilters(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{Src: CacheMiss, Kernel: false})
	tr.Append(Record{Src: TLBMiss, Kernel: false})
	tr.Append(Record{Src: CacheMiss, Kernel: true})
	if tr.CacheMisses().Len() != 2 || tr.TLBMisses().Len() != 1 {
		t.Fatal("source filters wrong")
	}
	if tr.KernelOnly().Len() != 1 || tr.UserOnly().Len() != 2 {
		t.Fatal("mode filters wrong")
	}
}

func TestDurationAndMaxPage(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 || tr.MaxPage() != 0 {
		t.Fatal("empty trace stats wrong")
	}
	tr.Append(Record{At: 5, Page: 3})
	tr.Append(Record{At: 9, Page: 7})
	if tr.Duration() != 9 || tr.MaxPage() != 8 {
		t.Fatalf("duration=%v maxpage=%d", tr.Duration(), tr.MaxPage())
	}
}

func readRec(at int, cpu int, page int) Record {
	return Record{At: sim.Time(at), CPU: mem.CPUID(cpu), Page: mem.GPage(page), Kind: mem.DataRead}
}

func writeRec(at int, cpu int, page int) Record {
	return Record{At: sim.Time(at), CPU: mem.CPUID(cpu), Page: mem.GPage(page), Kind: mem.DataWrite}
}

func TestReadChainsBasic(t *testing.T) {
	tr := &Trace{}
	// CPU0 reads page 1 four times, then CPU1 writes it: one chain of 4.
	for i := 0; i < 4; i++ {
		tr.Append(readRec(i, 0, 1))
	}
	tr.Append(writeRec(10, 1, 1))
	// CPU2 reads page 2 twice, never written: chain of 2.
	tr.Append(readRec(20, 2, 2))
	tr.Append(readRec(21, 2, 2))
	c := ReadChains(tr, []int{1, 2, 4, 8})
	if c.TotalDataMisses != 6 {
		t.Fatalf("total = %d, want 6 (writes excluded)", c.TotalDataMisses)
	}
	want := []float64{1.0, 1.0, 4.0 / 6.0, 0}
	for i := range want {
		if got := c.FractionAtLeast[i]; got != want[i] {
			t.Errorf("threshold %d: %v, want %v", c.Thresholds[i], got, want[i])
		}
	}
}

func TestReadChainsWriteTerminatesAllCPUs(t *testing.T) {
	tr := &Trace{}
	tr.Append(readRec(0, 0, 1))
	tr.Append(readRec(1, 1, 1))
	tr.Append(writeRec(2, 0, 1)) // terminates both CPUs' chains
	tr.Append(readRec(3, 0, 1))
	c := ReadChains(tr, []int{1, 2})
	// Three chains of length 1 each.
	if c.TotalDataMisses != 3 {
		t.Fatalf("total = %d", c.TotalDataMisses)
	}
	if c.FractionAtLeast[1] != 0 {
		t.Fatalf("no chain should reach length 2, got %v", c.FractionAtLeast[1])
	}
}

func TestReadChainsIgnoresInstrAndTLB(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{Kind: mem.InstrFetch, Page: 1})
	tr.Append(Record{Kind: mem.DataRead, Page: 1, Src: TLBMiss})
	c := ReadChains(tr, nil)
	if c.TotalDataMisses != 0 {
		t.Fatalf("counted %d misses, want 0", c.TotalDataMisses)
	}
}

func TestReadChainsTotalsEqualDataReadMisses(t *testing.T) {
	rng := sim.NewRand(3)
	tr := &Trace{}
	var reads uint64
	for i := 0; i < 5000; i++ {
		k := mem.DataRead
		if rng.Bool(0.2) {
			k = mem.DataWrite
		} else {
			reads++
		}
		tr.Append(Record{At: sim.Time(i), CPU: mem.CPUID(rng.Intn(4)),
			Page: mem.GPage(rng.Intn(30)), Kind: k})
	}
	c := ReadChains(tr, nil)
	if c.TotalDataMisses != reads {
		t.Fatalf("chain totals %d != read misses %d", c.TotalDataMisses, reads)
	}
	// Monotone non-increasing CDF.
	for i := 1; i < len(c.FractionAtLeast); i++ {
		if c.FractionAtLeast[i] > c.FractionAtLeast[i-1] {
			t.Fatal("chain CDF not monotone")
		}
	}
}

func TestFractionAt(t *testing.T) {
	c := ChainAnalysis{Thresholds: []int{1, 512}, FractionAtLeast: []float64{1.0, 0.6}}
	if got := c.FractionAt(512); got != 0.6 {
		t.Fatalf("FractionAt(512) = %v", got)
	}
	if got := c.FractionAt(600); got != 0.6 {
		t.Fatalf("FractionAt(600) = %v", got)
	}
	if got := c.FractionAt(1); got != 1.0 {
		t.Fatalf("FractionAt(1) = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{CPU: 0, Page: 1, Kind: mem.DataRead})
	tr.Append(Record{CPU: 0, Page: 1, Kind: mem.DataWrite, Kernel: true})
	tr.Append(Record{CPU: 1, Page: 2, Kind: mem.InstrFetch})
	tr.Append(Record{CPU: 1, Page: 2, Src: TLBMiss, Kind: mem.DataRead})
	s := Summarize(tr, 2)
	if s.Records != 4 || s.CacheMisses != 3 || s.TLBMisses != 1 {
		t.Fatalf("summary counts: %+v", s)
	}
	if s.Reads != 1 || s.Writes != 1 || s.IFetches != 1 || s.KernelMisses != 1 {
		t.Fatalf("kind split: %+v", s)
	}
	if s.Pages != 2 || s.PerCPU[0] != 2 || s.PerCPU[1] != 1 {
		t.Fatalf("page/cpu split: %+v", s)
	}
	if len(s.HottestPages) != 2 || s.HottestPages[0].Page != 1 || s.HottestPages[0].Count != 2 {
		t.Fatalf("hottest: %+v", s.HottestPages)
	}
	if len(s.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestSummarizeNoTop(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{Page: 1, Kind: mem.DataRead})
	s := Summarize(tr, 0)
	if s.HottestPages != nil {
		t.Fatal("hottest pages collected with top=0")
	}
}
