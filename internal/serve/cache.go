package serve

import (
	"container/list"
	"context"
	"sync"
)

// cache is the server's bounded, content-addressed result store: rendered
// response bytes keyed by the request's content address (workload + scale +
// options fingerprint — the same fingerprint the report memo keys on, so two
// requests collide exactly when their simulations would be byte-identical).
//
// Two robustness properties distinguish it from the report.Harness memo,
// which it deliberately does not reuse:
//
//   - Bounded. A server answering arbitrary what-ifs for weeks cannot let
//     distinct keys accumulate; entries past cap evict least-recently-used.
//     The harness memo grows forever by design (an experiment suite's key
//     space is finite).
//   - Single-flight under cancellation. Concurrent requests for one key
//     share a single simulation, but a follower whose own deadline expires
//     stops waiting (its context, not the owner's, governs its wait). A
//     failed run is never cached: the owner reports its failure, the entry
//     is removed, and the next request re-runs.
type cache struct {
	mu       sync.Mutex
	cap      int
	order    *list.List               // front = most recently used
	entries  map[string]*list.Element // key -> element whose Value is *cacheEntry
	inflight map[string]*flight

	hits, misses, evictions uint64
}

// cacheEntry is one cached rendering.
type cacheEntry struct {
	key  string
	body []byte
}

// flight is one in-progress fill: the owner runs fn, followers block on done.
type flight struct {
	done chan struct{}
	body []byte // nil when the fill failed (failures are not cached)
}

func newCache(capacity int) *cache {
	return &cache{
		cap:      capacity,
		order:    list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*flight{},
	}
}

// get returns the cached body for key, marking it most-recently-used.
func (c *cache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).body, true
}

// put stores a rendered body, evicting the least-recently-used entry when
// full. A zero or negative capacity disables storage entirely.
func (c *cache) put(key string, body []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// do returns key's body, filling via fn under single-flight: one concurrent
// owner runs the simulation, followers share its bytes. A follower stops
// waiting when its own ctx ends (the owner keeps running — its result still
// feeds the cache and any patient followers). fn failures propagate to every
// waiter and leave nothing cached.
func (c *cache) do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			body := el.Value.(*cacheEntry).body
			c.mu.Unlock()
			return body, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			// The follower's wait races its own deadline by design; both arms lead
			// to response plumbing, never into result bytes.
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.body != nil {
				return f.body, nil
			}
			// The owner failed (its error went to its own caller); retry the
			// loop — this waiter becomes the owner and re-runs.
			continue
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		body, err := fn()
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		if err == nil {
			c.put(key, body)
			f.body = body
		}
		close(f.done)
		return body, err
	}
}

// cacheStats is the /healthz counters snapshot.
type cacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func (c *cache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// index returns the cached keys, most recently used first — the drain flush
// logs it so a restarted server's operator can see what was warm.
func (c *cache) index() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry).key)
	}
	return keys
}
