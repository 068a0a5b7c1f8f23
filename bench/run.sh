#!/usr/bin/env bash
# Builds the benchmark harness and runs it; call it from the repository
# root. Everything the Go toolchain writes (build cache, temporary files,
# module cache, telemetry) and every binary stays under .bench_build in
# the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
