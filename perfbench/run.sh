#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream-1m --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, the binary) and everything
# a run writes (spans, results, scratch ledgers) stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
