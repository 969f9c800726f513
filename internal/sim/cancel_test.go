package sim

import "testing"

// chainModel schedules a self-rescheduling chain long enough that every run
// loop crosses many cancellation strides, so the tests below can observe a
// cancelled run stopping far short of the full event count.
const chainEvents = 200000

// TestEngineRunUntilCancel proves the single-heap run loop stops within one
// stride of the predicate turning true, instead of draining the queue.
func TestEngineRunUntilCancel(t *testing.T) {
	var eng Engine
	var k Kind
	k = eng.Register(func(now Time, arg uint64) {
		if arg < chainEvents {
			eng.AfterKind(1, k, arg+1)
		}
	})
	eng.AtKind(0, k, 0)

	eng.SetCancel(func() bool { return eng.Fired() >= 5000 })
	eng.RunUntil(Second)

	if eng.Fired() >= chainEvents {
		t.Fatalf("cancelled run drained the queue: fired %d", eng.Fired())
	}
	if eng.Fired() > 5000+cancelMask+1 {
		t.Fatalf("run overshot the cancellation stride: fired %d", eng.Fired())
	}
	if eng.Now() >= Second {
		t.Fatalf("cancelled run advanced the clock to the deadline: %v", eng.Now())
	}
}

// TestEngineRunCancel covers the drain-everything loop.
func TestEngineRunCancel(t *testing.T) {
	var eng Engine
	var k Kind
	k = eng.Register(func(now Time, arg uint64) {
		if arg < chainEvents {
			eng.AfterKind(1, k, arg+1)
		}
	})
	eng.AtKind(0, k, 0)

	eng.SetCancel(func() bool { return eng.Fired() >= 3000 })
	eng.Run()

	if eng.Fired() >= chainEvents {
		t.Fatalf("cancelled run drained the queue: fired %d", eng.Fired())
	}
}
