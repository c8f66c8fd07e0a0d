#!/usr/bin/env bash
# Builds dmfbd and the benchmark from the checkout's sources, then runs one
# benchmark invocation with the given arguments, for example:
#
#   bash perfbench/run.sh --workload plan-hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 5 --workloads plan-hot,plan-cold --seconds 10
#
# Run it from the repository root. Every build product, Go cache and
# temporary file stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dmfbd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/dmfbd and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off

go build -o "$build/bin/dmfbd" ./cmd/dmfbd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -dmfbd "$build/bin/dmfbd" -workdir "$build/run" "$@"
