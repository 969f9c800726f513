package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"ccnuma/internal/core"
	"ccnuma/internal/serve"
)

// checker counts operations and verifies every output the benchmark sees.
// An operation is one simulation run through the library or one HTTP
// request; it fails when it errors, is refused, or any check on its output
// fails. It is safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	// bytesOf is the first rendering seen for each configuration and seed;
	// every later run of the same pair must reproduce it exactly.
	bytesOf map[string]string
	runs    map[string]int
}

func newChecker() *checker {
	return &checker{bytesOf: map[string]string{}, runs: map[string]int{}}
}

// op records one operation; problem is "" when it succeeded.
func (c *checker) op(problem string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if problem != "" {
		c.failed++
		if len(c.problems) < 20 {
			c.problems = append(c.problems, problem)
		}
	}
}

// runKey names a request's configuration and seed.
func runKey(r serve.Request) string {
	seed := uint64(defaultSeed)
	if r.Seed != nil {
		seed = *r.Seed
	}
	return fmt.Sprintf("%s#%d", goldenKey(r), seed)
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// rendering checks one rendered result of req: against the first rendering
// of the same configuration and seed, and at the default seed against the
// recorded golden hash. It returns "" or the first problem found.
func (c *checker) rendering(req serve.Request, body []byte) string {
	key := runKey(req)
	h := sha(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs[key]++
	if prev, ok := c.bytesOf[key]; ok && prev != h {
		return fmt.Sprintf("%s: result bytes differ between runs of one seed", key)
	}
	c.bytesOf[key] = h
	if req.Seed == nil || *req.Seed == defaultSeed {
		if want, ok := goldens[goldenKey(req)]; !ok || want != h {
			return fmt.Sprintf("%s: result hash %s, recorded golden %q", key, h, want)
		}
	}
	return ""
}

// result checks a library run: accounting invariants on the aggregate and
// every per-CPU ledger, then the rendering.
func (c *checker) result(req serve.Request, res *core.Result, body []byte) string {
	if err := res.Agg.CheckInvariants(); err != nil {
		return fmt.Sprintf("%s: aggregate: %v", goldenKey(req), err)
	}
	for i := range res.PerCPU {
		if err := res.PerCPU[i].CheckInvariants(); err != nil {
			return fmt.Sprintf("%s: cpu %d: %v", goldenKey(req), i, err)
		}
	}
	return c.rendering(req, body)
}

// once returns the requests whose configuration and seed ran only once, so
// the caller can re-run them and compare.
func (c *checker) once(reqs []serve.Request) []serve.Request {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []serve.Request
	for _, r := range reqs {
		if c.runs[runKey(r)] == 1 {
			out = append(out, r)
		}
	}
	return out
}
