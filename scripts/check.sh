#!/usr/bin/env sh
# check.sh — the repository's full verification gate, run locally and by CI.
# Fails on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> mggcn-vet (domain rules)"
go run ./cmd/mggcn-vet ./...

echo "==> mggcn-train smoke"
# One phantom Products epoch through the CLI, full-batch then sampled: exit 0
# is the assertion.
go run ./cmd/mggcn-train -dataset products -gpus 4 -phantom -epochs 1 > /dev/null
go run ./cmd/mggcn-train -dataset products -gpus 4 -phantom -epochs 1 -sampled > /dev/null

echo "==> examples"
# Every example runs end to end with its output discarded: exit 0 is the
# assertion.
for dir in examples/*/; do
	go run "./$dir" > /dev/null
done

echo "==> non-test LOC (scripts/loc.sh)"
# The ROADMAP tracks non-test Go lines per package; internal/core and the
# repository total have ceilings that only go down.
scripts/loc.sh -check

echo "==> staticcheck"
# Pinned in CI (see .github/workflows/ci.yml); locally the toolchain may be
# offline, so skip with a warning rather than failing on a missing binary.
if command -v staticcheck > /dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (CI runs it pinned)" >&2
fi

echo "==> govulncheck"
if command -v govulncheck > /dev/null 2>&1; then
	govulncheck ./...
else
	echo "govulncheck not installed; skipping (CI runs it pinned)" >&2
fi

echo "==> mggcn-verify schedcheck (symbolic schedule verifier)"
# Collective matching / deadlock freedom, shape-flow typing, and exact
# closed-form communication-cost certification over every shipped strategy
# and its elastic P-1 degradation path, off the default operating point (the
# golden-diffed `mggcn-verify all` step below covers the defaults).
go run ./cmd/mggcn-verify schedcheck -gpus 8 -memscale 3

echo "==> mggcn-verify memcheck (static peak-memory certifier)"
# Three-way byte-exact cross-check — closed-form certified peak, graph
# liveness high-water, replay-time allocation meter — over every strategy
# (full-batch, GAT, sampled pipeline) and each elastic P-1 degradation,
# plus paper-scale fit verdicts; exits 1 on any disagreement. Off the default
# operating point, like the schedcheck leg.
go run ./cmd/mggcn-verify memcheck -gpus 8 -machine v100

echo "==> mggcn-verify san (task-graph sanitizer)"
# Static happens-before check, shadow replay, and adversarial parity over
# every shipped strategy; then the fence-removal regression (removing the
# cross-stream fences must expose conflicts somewhere, or the access
# declarations went blind).
go run ./cmd/mggcn-verify san -seeds 4
go run ./cmd/mggcn-verify san -ignore-fences -seeds 1

echo "==> mggcn-verify chaos (fault-injection smoke)"
# Seeded fault matrix over every strategy plus the sampled pipeline:
# crash, transient (retried and exhausted), straggler, poison, and the
# sampler-only flaky-sampler kind. Exits non-zero if any scenario deviates
# from its expected survive/abort outcome.
go run ./cmd/mggcn-verify chaos -seeds 1 > /dev/null

echo "==> mggcn-verify all -json (every pass over one set of recordings)"
# The single-report leg: each subject recorded once, one happens-before
# closure shared by the san and memcheck passes, tasks per subject and
# elapsed_ms per pass in the JSON. The verdict lines at default flags carry
# no timings; go test ./cmd/mggcn-verify diffs them against the committed
# golden byte for byte.
go run ./cmd/mggcn-verify all -json > /dev/null

echo "==> go test -race"
# -short skips the long phantom end-to-end sweeps (they re-run the timing
# model, which the non-race step already covers) so the race pass watches
# the concurrent code — the parallel epoch executor, collectives, kernels —
# within CI budget. Headroom over the default 10m package timeout stays.
# The detector's build leaves the assembly kernels out (it cannot see into
# them), so this is also the whole tree on the pure-Go table; the full run
# below is the whole tree on the assembly, installed when the CPU qualifies
# (internal/kernel's TestVectorImplInstalled fails if the probe refused it).
# This one run covers what CI's parallel jobs select by -run pattern for
# wall-clock: adversarial replay orders with delay injection (mggcn-san),
# the sampled pipeline's double-buffered handoff (mggcn-sample) and the fault
# paths through the executor's error/cancel machinery (mggcn-chaos).
go test -race -short -timeout 30m ./...
# The executor's lock-free task stamps and the allocation meter that reads
# them, at four workers, several times over.
go test -race -count=3 -run 'TripleCrossCheck|Meter|Stamp' ./internal/memcheck/ ./internal/sim/

echo "==> go test (full, no race)"
go test -timeout 30m ./...

echo "==> fuzz smoke"
# Ten seconds of coverage-guided mutation each over the binary dataset decoder,
# from the seed corpus WriteBinary produces (FuzzReadBinary), over both
# checkpoint loaders, from the v2 and v3 writers' output (FuzzLoadCheckpoint),
# over BTER's Chung-Lu phase's guide-table search against
# sort.SearchFloat64s (FuzzGuidedSearch), over that phase on one to three lanes
# against its serial loop (FuzzChungLu, anchored, as -fuzz takes a pattern), over the SpMM row kernel's strip
# widths, entry counts, columns, value forms and values against its scalar
# body (FuzzSpMMRowModes), over every GeMM tile body this CPU is offered
# against the scalar tile (FuzzTileCandidates), over every offered
# softmax row body against the scalar ones (FuzzExpRow), and over fuzzed graphs,
# batches and fanouts a reused Sampler's blocks against the reference
# construction (FuzzSamplerMatchesReference).
go test -run '^$' -fuzz FuzzReadBinary -fuzztime 10s ./internal/graphio/
go test -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzGuidedSearch -fuzztime 10s ./internal/gen/
go test -run '^$' -fuzz '^FuzzChungLu$' -fuzztime 10s ./internal/gen/
go test -run '^$' -fuzz FuzzSpMMRowModes -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz FuzzTileCandidates -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz FuzzExpRow -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz FuzzSamplerMatchesReference -fuzztime 10s ./internal/sample/

echo "==> benchmark module"
# benchmark/ is a module of its own (replace mggcn => ../), so ./... never
# reaches it: an API it uses could change and only the benchmark gate would
# notice. Read-only: vet and its own tests, nothing under benchmark/ changes.
# (benchmark/run.sh still passes -tags simd; no file reads the tag.)
go vet -C benchmark ./...
go test -C benchmark ./...

echo "==> arm64 cross-compile (NEON path)"
# The NEON bodies cannot run here; vet's asmdecl still holds their frames to
# the Go declarations, and the kernel's arm64 tests (its init's body lists
# among them) must still compile.
GOOS=linux GOARCH=arm64 go build ./...
GOOS=linux GOARCH=arm64 go vet ./...
GOOS=linux GOARCH=arm64 go test -c -o /dev/null ./internal/kernel/

echo "==> benchmark smoke"
# One iteration per benchmark, no tests: keeps the kernel benchmarks
# (the workloads' layer shapes and adjacency tiles — BenchmarkSpMMTiles —,
# flat-vs-tiled pairs, pool scaling) compiling and runnable so they can't
# silently rot. Timings from a single iteration
# are meaningless and are discarded.
go test -bench . -benchtime=1x -run '^$' ./... > /dev/null

echo "All checks passed."
