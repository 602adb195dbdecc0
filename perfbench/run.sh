#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch data directories all live under .bench_build/ in the
# current directory, so a run touches nothing outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
