#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload kv-tune --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build there: the Go build cache, the binary and the
# span artifacts of traced runs.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -out "$out" -commit "$commit" "$@"
