#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build and module
# caches, the binary, the daemon data directories and the trace files.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config" # go's telemetry and env files
export GOTOOLCHAIN=local
export GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
sync # write the new binary back now, not during the run's set-up
exec "$out/perfbench" --workdir "$out" "$@"
