// Package serve is the simulation-as-a-service layer behind cmd/numasimd: an
// HTTP/JSON frontend over the core simulator whose robustness properties —
// bounded queues, load shedding, deadline propagation, clean drain — are
// first-class, the shape an interactive what-if frontend over the paper's
// policy space needs.
//
// # Request path
//
// POST /run carries a Request (a core.Options-shaped JSON document naming a
// workload, policy, machine config, and optional fault injection). The
// server validates and normalizes it (defaults filled in, knobs the policy
// ignores cleared) and answers from a bounded cache keyed on the normalized
// request, so a hit costs a decode, a key and a map lookup: only the owner
// of a miss builds the options and simulates. Identical what-ifs cost one
// simulation (single-flight), distinct ones evict least-recently-used
// entries once the cache is full. Responses are byte-identical to
// `numasim -json` for the same options — both build through Request.Build
// and render through WriteResultJSON.
//
// # Admission and overload
//
// Admission is a two-stage token scheme. A request first takes a queue slot
// (capacity Workers+QueueDepth); none free means the server is saturated and
// the request is rejected immediately with 429 and a Retry-After — never an
// unbounded goroutine pile. An admitted request that must simulate then
// waits for one of Workers run slots; a cache hit, or a follower sharing
// another request's in-flight run, takes none. Shedding prefers queued work
// over running work: a drain rejects the waiters (503) while in-flight
// simulations finish.
//
// # Deadlines
//
// Every request runs under a context deadline (the server's RequestTimeout).
// The deadline propagates through report.Harness into the engine's run loop,
// which polls cancellation every ~1k dispatched events, so a timed-out or
// abandoned query stops simulating within microseconds — no goroutine keeps
// burning CPU toward a virtual deadline nobody will read.
//
// # Failure isolation
//
// A run that panics is contained by the harness's child-goroutine recovery
// and answered as a structured failure body carrying the flight recorder's
// dump (the run's last obs events), so a crash is a diagnosable response,
// not a dead connection. Failures are never cached.
//
// # Lifecycle
//
// The state machine is accepting → draining → stopped. SIGTERM (handled by
// cmd/numasimd) calls Shutdown: the server stops admitting (new requests
// 503), sheds the queue, waits for in-flight runs up to DrainTimeout, then
// cancels stragglers cooperatively and flushes the cache index through Logf.
// /healthz reports queue depth, run occupancy, cache counters and /run's
// error responses by status; /readyz
// flips to 503 the moment the drain begins (and while the queue is full), so
// a load balancer stops routing before the listener closes.
package serve
