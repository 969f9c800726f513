GO ?= go

# Tier-1 verification plus formatting, the race detector, and benchmark
# smoke runs. `make ci` is what a CI job should run.
.PHONY: ci fmt-check vet lint build test race fault-smoke bench-smoke \
	obs-bench-smoke serve-smoke serve-bench bench bench-json bench-json-smoke

ci: fmt-check vet lint build race fault-smoke bench-smoke obs-bench-smoke serve-smoke bench-json-smoke

# gofmt -l prints nonconforming files; any output fails the target.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# numalint: the domain-specific checks go vet cannot know about —
# determinism, hot-path allocation-freedom, tracer guarding, and fault
# purity. Exits non-zero on any finding; see internal/lint and README. The
# elapsed time is printed so a `make ci` log records what the analysis costs.
lint:
	@t0=$$(date +%s); \
	$(GO) run ./cmd/numalint ./...; \
	rc=$$?; t1=$$(date +%s); \
	echo "lint: $$((t1-t0))s"; exit $$rc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment harness is concurrent (report.Harness singleflight memo,
# per-experiment worker pools); keep the race detector in the loop. The
# second run re-executes the contention hammers by name with -count=1 so a
# cached pass can never mask a freshly introduced race in the memo or the
# panic-isolation path.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 \
		-run 'TestSingleflightUnderConcurrency|TestHarnessPanicIsolation|TestHarnessFailureHammer|TestHarnessFailureEvictedFromMemo' \
		./internal/report
	$(GO) test -race -count=1 -run 'TestRecorderConcurrentRecordAndDump' ./internal/obs

# The chaos suite: a full-fault run (drain + drops + transient allocation
# failures + slow link) must complete deterministically with invariants
# intact. Cheap enough to run on every CI pass.
fault-smoke:
	$(GO) test -run 'TestChaos' -count=1 ./internal/core

# One cheap iteration of the trace-simulator benchmark proves the bench
# harness still builds and runs end to end.
bench-smoke:
	BENCH_SCALE=0.1 $(GO) test -run '^$$' -bench BenchmarkTraceSimThroughput -benchtime 1x .

# The disabled-tracer benchmark doubles as the proof that instrumentation
# costs one branch when off; one iteration keeps CI honest about it building.
obs-bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTracerDisabled|BenchmarkRecorderDisabled' -benchtime 1x ./internal/obs

# End-to-end check of the simulation server: builds the real numasim and
# numasimd binaries, byte-diffs a served response against `numasim -json`,
# hammers the bounded queue (only 200s and deliberate 429s allowed), and
# SIGTERMs the daemon with a request in flight expecting a clean exit 0.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 ./cmd/numasimd

# Machine-readable record of the serving-layer benchmarks: the warm
# cache-hit path and the cold full-simulation path, one iteration each,
# parsed by cmd/benchjson into BENCH_9.json.
serve-bench:
	$(GO) test -run '^$$' -bench 'ServeCachedHit|ServeUncached' \
		-benchmem -benchtime 1x ./internal/serve \
		| $(GO) run ./cmd/benchjson -out BENCH_9.json
	@echo wrote BENCH_9.json

# The full paper-regeneration benchmark suite (see bench_test.go).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Machine-readable record of the throughput benchmarks: one iteration at
# quarter scale, parsed by cmd/benchjson into BENCH_8.json (ns/op, allocs/op,
# Mrefs/s, records).
bench-json:
	BENCH_SCALE=0.25 $(GO) test -run '^$$' \
		-bench 'FullSystemEngineering|TraceSimThroughput' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_8.json
	@echo wrote BENCH_8.json

# Smoke: prove the bench-to-JSON pipeline parses current go test output.
bench-json-smoke:
	BENCH_SCALE=0.1 $(GO) test -run '^$$' \
		-bench TraceSimThroughput -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out /dev/null
