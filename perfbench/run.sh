#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --p99-limit-ms 100 --workload engr-migrep --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the traced run's spans and
# profiles. The build fails, and so the run does, when the repository's own
# module is not beside perfbench/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
