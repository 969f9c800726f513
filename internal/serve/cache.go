package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// cache is the server's bounded result store: rendered response bytes keyed
// by the normalized request (Request.key), so a hit costs a map lookup and
// never assembles the options it would have simulated. Equal keys always
// mean byte-identical simulations; requests that differ only in ways Build
// erases may take separate entries.
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
	// err is set when the fill panicked: its followers return it rather than
	// each re-running, in turn, a fill that would most likely panic again.
	err error
}

// The outcomes do reports: the body was stored, another request's fill was
// shared, or this request ran the fill.
const (
	outcomeHit    = "hit"
	outcomeFollow = "follow"
	outcomeMiss   = "miss"
)

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

// do returns key's body and its outcome, filling via fn under
// single-flight: one concurrent owner runs the simulation, followers share
// its bytes. A follower stops waiting when its own ctx ends (the owner keeps
// running — its result still feeds the cache and any patient followers). fn
// failures propagate to the owner and leave nothing cached; the followers of
// a failed fill retry, and of a panicked one get its error.
func (c *cache) do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, string, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			body := el.Value.(*cacheEntry).body
			c.mu.Unlock()
			return body, outcomeHit, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			// The follower's wait races its own deadline by design; both arms lead
			// to response plumbing, never into result bytes.
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, outcomeFollow, ctx.Err()
			}
			if f.body != nil || f.err != nil {
				return f.body, outcomeFollow, f.err
			}
			// The owner failed (its error went to its own caller); retry the
			// loop — this waiter becomes the owner and re-runs.
			continue
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()
		body, err := c.fill(key, f, fn)
		return body, outcomeMiss, err
	}
}

// fill runs fn as the owner of key's flight and releases the flight however
// fn ends. A panic becomes an error for the owner and its followers: left
// open, the flight would hold every later request for key until its
// deadline.
func (c *cache) fill(key string, f *flight, fn func() ([]byte, error)) (body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			body, err = nil, fmt.Errorf("serve: result fill panicked: %v", p)
			f.err = err
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		if err == nil {
			c.put(key, body)
			f.body = body
		}
		close(f.done)
	}()
	return fn()
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
