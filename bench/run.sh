#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is the "command" of
# BENCHMARK.json; arguments pass through (--workload, --seed, --seconds,
# --trace, or -compare old.json new.json).
#
# Everything the build and the run write stays inside the checkout: the
# binary, Go's build cache and temporary files go to .bench_build/, reports
# and traces to bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config   # go's telemetry and env files
export GOPROXY=off GOTOOLCHAIN=local
# bench/ is a module of its own (videocloud/bench) that replaces videocloud
# with the checkout around it, so the build fails where that is missing.
go build -C "$root/bench" -o "$build/videocloud-bench" .
cd "$root"
exec "$build/videocloud-bench" "$@"
