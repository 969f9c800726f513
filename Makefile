GO ?= go

# Tier-1 verification plus formatting, the one-CPU goldens, the race detector,
# and benchmark smoke runs. `make ci` is what a CI job should run.
.PHONY: ci fmt-check vet build test perfbench-check golden-1cpu probe-check race \
	fault-smoke fuzz-smoke bench-smoke obs-bench-smoke serve-smoke bench

ci: fmt-check vet build perfbench-check golden-1cpu probe-check race fault-smoke \
	fuzz-smoke bench-smoke obs-bench-smoke serve-smoke

# $(call named,PKG,PATTERN) fails unless every |-separated alternative of
# PATTERN matches a test or benchmark in PKG (listed with go test -list).
# go test -run and -bench pass silently on a pattern that names nothing, so
# without this a renamed test would quietly drop out of the named runs below.
define named
	@names=$$($(GO) test -list . $(1)) || exit 1; \
	for alt in $$(echo '$(2)' | tr '|' ' '); do \
		echo "$$names" | grep -v '^ok ' | grep -Eq -- "$$alt" || \
			{ echo "$(1): no test or benchmark matches $$alt"; exit 1; }; \
	done
endef

# gofmt -l prints nonconforming files; any output fails the target.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a module of its own (replace ccnuma => ../), so the root
# go build ./... and go test ./... skip it; an API change that breaks it
# would otherwise show only when perfbench/run.sh runs. Offline, ~2 s.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The byte goldens again with the process pinned to one CPU, at -cpu 1 and 2.
# A branch on runtime.GOMAXPROCS or runtime.NumCPU passes on a multi-core
# host and changes bytes only where the host has one CPU, so the goldens must
# hash the same whatever CPU count the process sees. -count=1 defeats the
# test cache, which does not key on the CPU affinity.
GOLDEN_CORE = TestRunExportsGolden|TestObservabilityGolden|TestShardNeutrality
GOLDEN_REPORT = TestReportDeterministicAcrossWorkers|TestEventExportsDeterministicAcrossWorkers

golden-1cpu:
	@command -v taskset >/dev/null || \
		{ echo "golden-1cpu: taskset (util-linux) is required to pin the goldens to one CPU"; exit 1; }
	$(call named,./internal/core,$(GOLDEN_CORE))
	$(call named,./internal/report,$(GOLDEN_REPORT))
	taskset -c 0 $(GO) test -count=1 -cpu 1,2 -run '$(GOLDEN_CORE)|$(GOLDEN_REPORT)' \
		./internal/core ./internal/report

# The probe-first read path (core's access) skips the full TLB and L1 lookups
# when their MRU-way probes hit. Its exactness rests on these tests: each
# probe, falling back to Lookup on a miss, leaves the same answers, stats and
# ways as Lookup alone, and no wired page ever enters a TLB. The frame
# allocator fills its free lists on demand; TestAllocatorMatchesEager holds
# it to the eager pre-filled allocator it replaced, call for call. The caches
# invalidate stale copies eagerly, at the write or page move; the two
# reference-model tests hold one cache and several CPUs' hierarchies on one
# Validity to the lazy two-stamp model that design replaced. The CPU step
# loop reads each process's steps from a feed made ahead by Gen.Fill, with
# the one CPU-dependent pick resolved on the CPU that runs it;
# TestFillMatchesNext holds that stream to Gen.Next on the same CPUs.
CACHE_REF_TESTS = TestCacheMatchesReferenceModel|TestHierarchiesMatchReferenceModel
PROBE_TESTS = TestHitMRUMatchesLookup|TestWiredPagesNeverInTLB|TestAllocatorMatchesEager|$(CACHE_REF_TESTS)|TestFillMatchesNext

probe-check:
	$(call named,./internal/tlb,TestHitMRUMatchesLookup)
	$(call named,./internal/cache,TestHitMRUMatchesLookup|$(CACHE_REF_TESTS))
	$(call named,./internal/core,TestWiredPagesNeverInTLB)
	$(call named,./internal/kernel/alloc,TestAllocatorMatchesEager)
	$(call named,./internal/workload,TestFillMatchesNext)
	$(GO) test -count=1 -run '^($(PROBE_TESTS))$$' ./internal/tlb ./internal/cache ./internal/core \
		./internal/kernel/alloc ./internal/workload

# The experiment harness is concurrent (report.Harness singleflight memo,
# per-experiment worker pools); keep the race detector in the loop. The
# second run re-executes the contention hammers by name with -count=1 so a
# cached pass can never mask a freshly introduced race in the memo or the
# panic-isolation path. Each run's step-feed helper fills generators beside
# the event loop; the core tests re-run its lifecycle (completed, cancelled
# and panicking runs) and a respawning workload by name.
RACE_REPORT = TestSingleflightUnderConcurrency|TestHarnessPanicIsolation|TestHarnessFailureHammer|TestHarnessFailureStaysMemoized|TestHarnessDeterministicFailureRunsOnce|TestHarnessCancelledFailureEvicted
RACE_OBS = TestRecorderConcurrentRecordAndDump
RACE_CORE = TestStepFeedHelperExitsAfterRun|TestStepFeedHelperExitsAfterCancel|TestStepFeedHelperExitsAfterPanic|TestStepFeedRespawnsMatchConsumerOnly

race:
	$(call named,./internal/report,$(RACE_REPORT))
	$(call named,./internal/obs,$(RACE_OBS))
	$(call named,./internal/core,$(RACE_CORE))
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run '$(RACE_REPORT)' ./internal/report
	$(GO) test -race -count=1 -run '$(RACE_OBS)' ./internal/obs
	$(GO) test -race -count=1 -run '$(RACE_CORE)' ./internal/core

# The chaos suite: a full-fault run (drain + drops + transient allocation
# failures + slow link) must complete deterministically with invariants
# intact. Cheap enough to run on every CI pass.
fault-smoke:
	$(call named,./internal/core,TestChaos)
	$(GO) test -run 'TestChaos' -count=1 ./internal/core

# A short fuzz of each input boundary. FuzzRequest: the request path
# numasimd and numasim share (decode, normalize and Build never panic, agree
# on what is a 400, and equal cache keys build equal runs). FuzzTrace: the
# foreign traces tracesim -in reads (trace.Read and Validate refuse or pass
# a trace, which then simulates under every policy without a panic, the same
# way twice). FuzzFaultConfig: fault.Config.Validate never panics and accepts
# only finite fractions in range. FuzzKindJSON: obs.Kind.UnmarshalJSON never
# panics and an accepted kind marshals back to its name. The checked-in
# corpora under internal/*/testdata/fuzz also run in every go test.
# Minimization is capped because the default 60 s can stall a 10 s run on
# one input.
fuzz-smoke:
	$(call named,./internal/serve,FuzzRequest)
	$(call named,./internal/tracesim,FuzzTrace)
	$(call named,./internal/fault,FuzzFaultConfig)
	$(call named,./internal/obs,FuzzKindJSON)
	$(GO) test -run '^$$' -fuzz '^FuzzRequest$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzTrace$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/tracesim
	$(GO) test -run '^$$' -fuzz '^FuzzFaultConfig$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzKindJSON$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/obs

# One cheap iteration of the trace-simulator benchmark proves the bench
# harness still builds and runs end to end; one of BenchmarkReadChains keeps
# Figure 4's chain analysis on a write-heavy trace in view, one of
# BenchmarkNewSystem the B/op of building a small machine, and one of
# BenchmarkServeCachedHit the allocs/op of numasimd's cache-hit path.
bench-smoke:
	$(call named,.,BenchmarkTraceSimThroughput)
	$(call named,./internal/trace,BenchmarkReadChains)
	$(call named,./internal/core,BenchmarkNewSystem)
	$(call named,./internal/serve,BenchmarkServeCachedHit)
	BENCH_SCALE=0.1 $(GO) test -run '^$$' -bench BenchmarkTraceSimThroughput -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkReadChains -benchtime 1x ./internal/trace
	$(GO) test -run '^$$' -bench BenchmarkNewSystem -benchmem -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkServeCachedHit -benchmem -benchtime 1x ./internal/serve

# The disabled-tracer benchmark doubles as the proof that instrumentation
# costs one branch when off; one iteration keeps CI honest about it building.
OBS_BENCH = BenchmarkTracerDisabled|BenchmarkRecorderDisabled

obs-bench-smoke:
	$(call named,./internal/obs,$(OBS_BENCH))
	$(GO) test -run '^$$' -bench '$(OBS_BENCH)' -benchtime 1x ./internal/obs

# End-to-end check of the simulation server: builds the real numasim and
# numasimd binaries, byte-diffs a served response against `numasim -json`,
# hammers the bounded queue (only 200s and deliberate 429s allowed), and
# SIGTERMs the daemon with a request in flight expecting a clean exit 0.
serve-smoke:
	$(call named,./cmd/numasimd,TestServeSmoke)
	$(GO) test -run TestServeSmoke -count=1 ./cmd/numasimd

# The full paper-regeneration benchmark suite (see bench_test.go).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
