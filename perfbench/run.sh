#!/usr/bin/env bash
# Builds the benchmark from source and runs it; pass the benchmark's own
# flags (see main.go). Run from the repository root. Everything the build
# and the run leave behind stays under .bench_build and .bench_out there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
