GO ?= go

# Tier-1 verification plus formatting, the race detector, and benchmark
# smoke runs. `make ci` is what a CI job should run.
.PHONY: ci fmt-check vet lint build test race fault-smoke bench-smoke \
	obs-bench-smoke serve-smoke bench

ci: fmt-check vet lint build race fault-smoke bench-smoke obs-bench-smoke serve-smoke

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
RACE_REPORT = TestSingleflightUnderConcurrency|TestHarnessPanicIsolation|TestHarnessFailureHammer|TestHarnessFailureEvictedFromMemo
RACE_OBS = TestRecorderConcurrentRecordAndDump

race:
	$(call named,./internal/report,$(RACE_REPORT))
	$(call named,./internal/obs,$(RACE_OBS))
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run '$(RACE_REPORT)' ./internal/report
	$(GO) test -race -count=1 -run '$(RACE_OBS)' ./internal/obs

# The chaos suite: a full-fault run (drain + drops + transient allocation
# failures + slow link) must complete deterministically with invariants
# intact. Cheap enough to run on every CI pass.
fault-smoke:
	$(call named,./internal/core,TestChaos)
	$(GO) test -run 'TestChaos' -count=1 ./internal/core

# One cheap iteration of the trace-simulator benchmark proves the bench
# harness still builds and runs end to end.
bench-smoke:
	$(call named,.,BenchmarkTraceSimThroughput)
	BENCH_SCALE=0.1 $(GO) test -run '^$$' -bench BenchmarkTraceSimThroughput -benchtime 1x .

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
