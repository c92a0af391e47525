#!/usr/bin/env sh
# bench.sh — regenerate the sampled-pipeline matrix.
#
# Runs cmd/mggcn-epochbench (cache fraction x pipelining at one device
# count, the recovery-overhead column, certified vs measured slab bytes) and
# writes BENCH_sample.json at the repository root. Built with -tags simd so
# the assembly microkernels are eligible; runtime dispatch falls back to
# scalar on hosts without the required ISA, and the JSON records GOMAXPROCS,
# the CPU count and the active kernel implementation. Wall-clock epochs,
# replay speedup and kernel rates are measured by benchmark/ (BENCHMARK.json),
# not here.
#
#   scripts/bench.sh                       # full matrix -> BENCH_sample.json
#   scripts/bench.sh -samplefracs 0,0.5    # any mggcn-epochbench flags pass through
set -eu

cd "$(dirname "$0")/.."

echo "==> sampled-pipeline matrix" >&2
go run -tags simd ./cmd/mggcn-epochbench "$@"
