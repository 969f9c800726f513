package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeCachedHit measures the warm path: request parsing, admission,
// and a cache hit — what an interactive frontend pays for a repeated
// what-if. No simulation runs after the first iteration. The handler is
// built once, as numasimd builds it, so routing setup stays out of the
// figure.
func BenchmarkServeCachedHit(b *testing.B) {
	s := New(Config{Workers: 2})
	defer s.Shutdown()
	h := s.Handler()
	serve := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(smallBody)))
		return rec.Code
	}
	if code := serve(); code != http.StatusOK {
		b.Fatalf("warmup: %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serve(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServeUncached measures the cold path: a full small simulation per
// request (distinct seeds defeat the cache), i.e. the marginal cost of a
// novel what-if end to end through admission, harness, and rendering.
func BenchmarkServeUncached(b *testing.B) {
	s := New(Config{Workers: 2, CacheEntries: -1})
	defer s.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"workload":"engineering","scale":0.05,"duration_ns":4000000,"seed":%d}`, i+1)
		if rec := post(s, body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
