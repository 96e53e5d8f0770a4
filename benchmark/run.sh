#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root. The
# binary and everything the Go toolchain writes (build cache, module cache,
# its own config and telemetry) stay in the checkout's .bench_build/, so
# nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd benchmark && go build -o "$build/uei-benchmark" .)
exec "$build/uei-benchmark" "$@"
