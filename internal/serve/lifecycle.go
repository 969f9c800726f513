package serve

import (
	"net/http"
	"time"
)

// Shutdown drains the server: accepting → draining → stopped.
//
//  1. Flip draining under the admission lock — every later request is
//     refused with 503 before it touches a queue slot.
//  2. Close drainCh — requests waiting for a run slot are shed with 503
//     immediately. Shedding queued work first is deliberate: those requests
//     have received nothing yet, while running simulations represent paid-for
//     CPU about to produce an answer.
//  3. Wait for in-flight handlers up to DrainTimeout. Past the deadline,
//     cancel baseCtx: every straggler's request context dies, the engine
//     loops notice within ~1k events, and the handlers still exit through
//     the normal join — nothing is abandoned mid-write.
//  4. Flush the cache index through Logf so the operator can see what was
//     warm, and report whether the drain was clean.
//
// Shutdown returns true when every in-flight request completed within the
// deadline (the process should exit 0) and is idempotent: later calls return
// the first drain's outcome once it finishes.
func (s *Server) Shutdown() bool {
	s.admitMu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		close(s.drainCh)
	}
	s.admitMu.Unlock()
	if first {
		s.logf("drain: admission closed, waiting up to %v for %d running", s.cfg.DrainTimeout, s.running.Load())
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	clean := true
	timer := time.NewTimer(s.cfg.DrainTimeout)
	// The drain deadline is wall-clock by nature: it decides process exit,
	// never result bytes.
	select {
	case <-done:
		timer.Stop()
	case <-timer.C:
		clean = false
		s.logf("drain: deadline expired, cancelling stragglers")
		s.baseCancel()
		<-done
	}
	s.baseCancel() // release the AfterFunc goroutine even on a clean drain

	st := s.cache.stats()
	s.logf("drain: complete clean=%v served=%d rejected=%d cache entries=%d hits=%d misses=%d evictions=%d",
		clean, s.served.Load(), s.answered(http.StatusTooManyRequests).Load(), st.Entries, st.Hits, st.Misses, st.Evictions)
	for i, key := range s.cache.index() {
		s.logf("cache[%d] %s", i, key)
	}
	return clean
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// AdmittedHighWater returns the maximum number of requests that ever held a
// queue slot at once — the lifecycle tests assert it never exceeds
// Workers+QueueDepth under load.
func (s *Server) AdmittedHighWater() int64 { return s.admittedHW.Load() }
