#!/usr/bin/env bash
# Builds svdd and the benchmark from the tree under test, then runs one
# workload. From the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, daemon journals and span dumps all
# stay under .bench_build/ in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/svdd" ./cmd/svdd
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" -svdd "$out/svdd" -work "$out" "$@"
