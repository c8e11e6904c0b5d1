#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh                       # all four workloads, seed 1
#   bash bench/run.sh --workload paper-grid --seed 3 --seconds 12 --trace 0
#
# The build cache, temporary files, the go command's config and the binary
# stay in .bench_build at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/sgprs-bench" .)
exec "$build/sgprs-bench" -dir "$here" "$@"
