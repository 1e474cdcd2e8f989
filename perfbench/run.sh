#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it with the arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload repeat-sw --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under the build
# directory inside the checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
