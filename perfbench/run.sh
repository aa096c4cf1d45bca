#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.
#
#   bash perfbench/run.sh --workload infer-real --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, trace files) stays under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local
export GOWORK=off

if ! (cd "$src" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
