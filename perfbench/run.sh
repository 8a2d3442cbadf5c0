#!/usr/bin/env bash
# Builds the program under test and the benchmark from source, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-survey --seed 1 --seconds 30 --trace 0
#
# Every build output, cache, temporary and config file (the go command's
# telemetry settings go under XDG_CONFIG_HOME) stays under .bench_build/.
# Telemetry is switched off first: otherwise the go command starts a
# detached upload process that outlives this script.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
mkdir -p "$out/bin" "$TMPDIR"
go telemetry off
go build -o "$out/bin/" ./cmd/resurvey ./cmd/resurveyd
(cd perfbench && go build -o "$out/bin/" ./cmd/perfbench ./cmd/feeddriver ./cmd/surveydriver)
exec "$out/bin/perfbench" "$@"
