#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the checkout root:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# It is `go run ./bench` with the Go build cache and the toolchain's
# temporary files kept inside the checkout, so that a run reads and writes
# nothing outside it.
set -euo pipefail
mkdir -p .bench_build/gocache .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp" GOTOOLCHAIN=local
exec go run ./bench "$@"
