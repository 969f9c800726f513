package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func(Time) { got = append(got, 3) })
	e.At(10, func(Time) { got = append(got, 1) })
	e.At(20, func(Time) { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("event order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEngineEqualTimesFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestEngineTimeNonDecreasing(t *testing.T) {
	var e Engine
	r := NewRand(42)
	last := Time(-1)
	var schedule func(now Time)
	n := 0
	schedule = func(now Time) {
		if now < last {
			t.Fatalf("time went backwards: %v after %v", now, last)
		}
		last = now
		n++
		if n < 500 {
			e.After(Time(r.Intn(100)), schedule)
			if r.Bool(0.3) {
				e.After(Time(r.Intn(50)), func(Time) {})
			}
		}
	}
	e.At(0, schedule)
	e.Run()
	if n != 500 {
		t.Fatalf("ran %d chained events, want 500", n)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(100, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.Run()
}

func TestEngineRunUntilStopsAtDeadline(t *testing.T) {
	var e Engine
	fired := 0
	e.At(10, func(Time) { fired++ })
	e.At(20, func(Time) { fired++ })
	e.At(30, func(Time) { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired %d events before deadline, want 2", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntilAdvancesClockToDeadline(t *testing.T) {
	// Regression: the clock must end at the deadline even when the queue
	// drains early, so Now-based readings after a run (sampler stop checks,
	// elapsed-time gauges) are well defined.
	var e Engine
	e.At(10, func(Time) {})
	e.RunUntil(100)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
	if e.Now() != 100 {
		t.Fatalf("clock after drained RunUntil = %v, want 100 (the deadline)", e.Now())
	}

	// With events left beyond the deadline the clock still lands on it.
	var e2 Engine
	e2.At(10, func(Time) {})
	e2.At(300, func(Time) {})
	e2.RunUntil(100)
	if e2.Now() != 100 {
		t.Fatalf("clock with pending event = %v, want 100", e2.Now())
	}

	// An empty engine advances too.
	var e3 Engine
	e3.RunUntil(50)
	if e3.Now() != 50 {
		t.Fatalf("clock on empty engine = %v, want 50", e3.Now())
	}
}

func TestEngineEvery(t *testing.T) {
	var e Engine
	ticks := 0
	e.Every(10, func(Time) { ticks++ }, func() bool { return ticks >= 5 })
	e.Run()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != 50 {
		t.Fatalf("final time = %v, want 50", e.Now())
	}
}

func TestEngineTypedEventsInterleaveWithClosures(t *testing.T) {
	// Typed and closure events share one queue and one seq counter, so
	// equal-time events fire in schedule order regardless of which API
	// scheduled them. The determinism of the typed hot path rests on this.
	var e Engine
	var got []int
	kind := e.Register(func(_ Time, arg uint64) { got = append(got, int(arg)) })
	e.At(5, func(Time) { got = append(got, 0) })
	e.AtKind(5, kind, 1)
	e.At(5, func(Time) { got = append(got, 2) })
	e.AtKind(5, kind, 3)
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed-API same-time events fired out of order: %v", got)
		}
	}
}

func TestEngineAtKindUnregisteredPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("scheduling an unregistered kind did not panic")
		}
	}()
	e.AtKind(10, Kind(0), 0)
}

func TestEngineEveryStopsAtDeadlineBoundary(t *testing.T) {
	// Regression guard for the typed-tick rewrite of Every: a tick landing
	// exactly on the deadline must fire, and a stop condition that becomes
	// true on that tick must not re-arm — Pending and Fired account for
	// every tick and nothing more.
	var e Engine
	ticks := 0
	e.Every(10, func(Time) { ticks++ }, func() bool { return e.Now() >= 30 })
	e.RunUntil(30)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3 (10, 20, and the deadline tick at 30)", ticks)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after stop fired, want 0", e.Pending())
	}
	if e.Fired() != 3 {
		t.Fatalf("fired = %d, want 3", e.Fired())
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.50us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRand(seed)
		v := r.Intn(int(n))
		return v >= 0 && v < int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64InRange(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRandZipfSkewsLow(t *testing.T) {
	r := NewRand(5)
	const n = 1000
	low := 0
	for i := 0; i < 10000; i++ {
		if r.Zipf(n) < n/10 {
			low++
		}
	}
	// A Zipf(1) draw over 1000 items lands in the first decile far more
	// often than the uniform 10%.
	if low < 4000 {
		t.Fatalf("only %d/10000 draws in first decile; distribution not skewed", low)
	}
}

func TestRandZipfInRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRand(seed)
		m := int(n)
		if m == 0 {
			m = 1
		}
		v := r.Zipf(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(11)
	c1 := r.Split()
	v := r.Uint64()
	r2 := NewRand(11)
	_ = r2.Split()
	if r2.Uint64() != v {
		t.Fatal("Split changed the parent stream inconsistently")
	}
	if c1.Uint64() == r.Uint64() {
		t.Fatal("child stream mirrors parent")
	}
}

func TestRandGeometricMean(t *testing.T) {
	r := NewRand(3)
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Geometric(8)
	}
	mean := float64(sum) / n
	if mean < 6 || mean > 10 {
		t.Fatalf("geometric mean = %v, want ~8", mean)
	}
}

// TestEveryHandlerTableGrowth pins the periodic-scheduling contract: any
// number of Every calls grows the handler table by at most one entry.
func TestEveryHandlerTableGrowth(t *testing.T) {
	var eng Engine
	eng.Register(func(Time, uint64) {}) // unrelated registration
	base := len(eng.handlers)
	for i := 0; i < 1000; i++ {
		eng.Every(Time(i+1), func(Time) {}, func() bool { return true })
	}
	if got := len(eng.handlers) - base; got != 1 {
		t.Fatalf("1000 Every calls grew the Engine handler table by %d entries, want 1", got)
	}
	eng.Run() // every periodic stops after one firing
}
