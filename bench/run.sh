#!/usr/bin/env bash
# Builds the benchmark and the kascade binary it spawns, then runs the
# benchmark with the arguments given. Run it from the repository root:
#
#   bash bench/run.sh -seed 1 -json out.json
#   bash bench/run.sh --workload deep-chain --seed 7 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ in the working directory:
# the Go build cache, the two binaries, and proc-chain's scratch files.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/gotmp" "$build/home"

# Keep the Go toolchain's own files in the checkout too.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/gotmp
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache

# Both builds are no-ops once the cache is warm. kascade comes from the
# repository's own module, the benchmark from its nested one.
go build -o "$build/bin/kascade" ./cmd/kascade
go build -C bench -o "$build/bin/bench" .

exec "$build/bin/bench" -kascade "$build/bin/kascade" -tmp "$build/tmp" "$@"
