#!/usr/bin/env bash
# Driver entry point of the repository benchmark (see BENCHMARK.json):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness from source and starts it in bench/, which in
# turn builds cmd/serve. Everything Go writes — build cache, temp files,
# both binaries, per-run bundles, span dumps — stays in .bench_build/ at
# the root of the checkout, so a run reads and writes only inside it.
# People can skip this script: `go run -C bench . -workload all`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
# Go's telemetry counters and env file live under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

cd "$here"
go build -o "$build/monitorless-bench" .
exec "$build/monitorless-bench" -work "$build" "$@"
