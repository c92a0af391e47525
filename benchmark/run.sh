#!/usr/bin/env bash
# Builds the benchmark runner with -tags simd (kernel dispatch falls back to
# scalar where the ISA is missing) and runs it from the checkout root. The
# Go build cache and the binary live under .bench_build/ in the checkout, so
# nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off
tags=simd
go build -C "$here" -tags "$tags" -ldflags "-X main.buildTags=$tags" -o "$build/mggcn-benchmark" .
cd "$root"
exec "$build/mggcn-benchmark" "$@"
