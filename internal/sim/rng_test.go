package sim

import (
	"math"
	"testing"
)

// agree draws once with Bool(p) and once with Below(Threshold(p)) from the
// same state and reports whether both the decision and the state after the
// draw match.
func agree(state uint64, p float64) bool {
	a, b := Rand{state: state}, Rand{state: state}
	return a.Bool(p) == b.Below(Threshold(p)) && a.state == b.state
}

func TestThresholdMatchesBool(t *testing.T) {
	ps := []float64{0, 0x1p-53, 0.3, 0.6, 0.94, 1 - 0x1p-53, 1, 1.5, -0.1, math.NaN(),
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}
	src := NewRand(7)
	for _, p := range ps {
		for i := 0; i < 10000; i++ {
			if s := src.Uint64() | 1; !agree(s, p) {
				t.Fatalf("p=%v state=%#x: Bool and Below(Threshold) disagree", p, s)
			}
		}
	}

	// Random (state, p) pairs. Every third p sits on or beside the draw the
	// state is about to make, where a rounding slip in Threshold would show.
	for i := 0; i < 1000000; i++ {
		s := src.Uint64() | 1
		var p float64
		switch i % 3 {
		case 0:
			p = src.Float64()
		case 1:
			p = (&Rand{state: s}).Float64()
		case 2:
			p = math.Nextafter((&Rand{state: s}).Float64(), 2)
		}
		if !agree(s, p) {
			t.Fatalf("p=%v state=%#x: Bool and Below(Threshold) disagree", p, s)
		}
	}
}

func TestThresholdClamps(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want uint64
	}{
		{0, 0}, {-0.1, 0}, {math.NaN(), 0}, {math.Inf(-1), 0},
		{0x1p-53, 1}, {math.SmallestNonzeroFloat64, 1}, {0.5, 1 << 52},
		{1 - 0x1p-53, 1<<53 - 1}, {1, 1 << 53}, {1.5, 1 << 53}, {math.Inf(1), 1 << 53},
	} {
		if got := Threshold(c.p); got != c.want {
			t.Errorf("Threshold(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}
