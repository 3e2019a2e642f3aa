#!/usr/bin/env bash
# Builds the benchmark driver from the checkout it sits in and runs it.
# Everything it writes stays inside the checkout: the Go build cache and the
# binary go to .bench_build/, results and traces to benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark: $root is not a dnnjps checkout (no go.mod and internal/); nothing to measure" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/dnnjps-bench" .)

cd "$root"
exec "$build/dnnjps-bench" "$@"
