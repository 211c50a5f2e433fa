#!/usr/bin/env bash
# Builds the benchmark against the source tree it sits in, then runs it with
# every argument passed through:
#
#   bash perfbench/run.sh --workload serve-token --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced-run artifacts all stay under .bench_build/ in that root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$root/perfbench" -o "$build/bin/perfbench" .
cd "$root"
exec "$build/bin/perfbench" "$@"
