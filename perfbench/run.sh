#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# root of a checkout, for example:
#
#   bash perfbench/run.sh --workload chat --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary) and the span files
# of traced runs stay under .bench_build/ and .bench_out/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOSUMDB=off GOENV=off
# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
