#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Called from
# the repository root as BENCHMARK.json's command:
#
#   bash benchmark/run.sh --workload volume_heavy --seed 1 --seconds 18 --trace 0
#
# Everything the go tool writes (build cache, work directory, its own
# configuration) is kept inside the checkout, under .bench_build.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/benchmark" ]; then
  echo "benchmark/run.sh: run me from the root of a checkout that holds the repository's sources" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/ifdk-benchmark" .)
exec "$build/ifdk-benchmark" "$@"
