#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-faulty-64 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary logs, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gomodcache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/run" "$@"
