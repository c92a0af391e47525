#!/usr/bin/env sh
# loc.sh — the ROADMAP's tracked size metric: lines of non-test Go code per
# package and in total (no *_test.go, no testdata/, and not benchmark/, which
# is a module of its own that measures this one).
#
#   scripts/loc.sh          print the table
#   scripts/loc.sh -check   also fail if internal/core or the total is over
#                           its ceiling
set -eu

cd "$(dirname "$0")/.."

# internal/core's ceiling is the size the last simplification PR reached
# (ROADMAP item 4). Lower it when core shrinks; a PR that needs to raise it
# has to say what the lines buy. 3327 -> 3333: the learning-rate check every
# trainer and the memory estimator share. 3333 -> 3319: the estimator hands
# its analytic partition to memcheck.AnalyticResident. 3319 -> 3323: the
# host-only ordering a broadcast stage's in-place readers need (the
# Graph.FenceNext call and the comment saying why); the shape-only BC slabs
# themselves cost no net line. 3323 -> 3316: partitionGraph hands the tiling
# to sparse.PermutedTiles and permutes labels and masks once, generically.
# 3316 -> 3306: that generic permute is sparse.Permuted now, which also
# permutes Â's per-vertex scale. 3306 -> 3280: Trainer.ForwardOnly, the
# correctness tests' forward pass, lives in those tests, and
# SampledTrainer.Cursor is gone (the tests read the cursor field).
# 3280 -> 3277: both trainers' checkpoints frame through one replicas
# method, which holds the phantom refusal, net of the sampled trainer
# taking structure-only graphs.
# 3277 -> 3279: the sampled trainer sorts vertices by degree once for every
# device's feature cache (P sorts and P Pos arrays before) and builds no
# Sampler on a phantom trainer, which never replays.
# 3279 -> 3269: the execution environment has no retry policy, clock or
# collective gate; a phantom epoch walks the fault hooks instead.
# 3269 -> 3268: both loss closures take their correct counts from the loss's
# own argmax, net of the eviction resync's reordered acknowledgement.
# 3268 -> 3266: the GeMM/SpMM order switch is a constant, not a Config field.
# 3266 -> 3267: the import of internal/rng, where SplitSeed moved from sample.
# 3267 -> 3244: one failure lattice for both trainers; recoveryPolicy and the
# loop's transient-task case are gone, and patience is a trainer method.
# 3244 -> 2913: the forward-only distributed GAT (gatdist.go) and the staged
# SpMM's four hooks that only it set are gone; the layer recorder's methods
# are the full-batch trainer's own, and the logit gather lives in the tests.
core_ceiling=2913
# The repository total's ceiling is the size the last deletion reached
# (ROADMAP item 5); same rule. 17555 -> 17591: that check, the row kernel's
# split bounds check and its install-time column probe, Dense.Row's panic
# type, and the loss's exp loop as a function of its own (with Row inlined,
# the call in that loop reloaded the whole loss loop's registers).
# 17591 -> 17229: the closed forms are integer Go over named model fields,
# and the symbolic polynomial algebra they were written in is gone.
# 17229 -> 17169: of the six exported functions only their own package's
# tests called, ParallelSDDMM is deleted and five moved into those tests, net
# of the host-only stage ordering.
# 17169 -> 17249: internal/gen's inline copy of math/rand's seeded stream
# (with phase 1's one-compare Bernoulli runs) and its open-addressing edge
# set, which make BTER about 3x faster with every graph bit-identical; net
# of the dataset cache's two loaders now sharing one helper.
# 17249 -> 17329: sparse.PermutedTiles, which writes the partition's tile
# grid straight from the permutation (+65 net of PermuteSymmetric, now the
# tests' oracle), and BTER's Chung-Lu guide table (+43), which together take
# about 40 % off fullbatch-spmm's set-up. Net of part's balance metrics
# moving into its tests and partitionGraph's one-pass permutes (-41), which
# also pay for BTER's own CSR scatter (+12) and FromCoo's doc line.
# 17329 -> 17481: Â stored once per vertex, which halves fullbatch-spmm's
# live heap and takes 18 % off fullbatch-gemm's with every loss and simulated
# second bit-identical. The row kernel's three value forms with their bounds
# check and install probes (+39 in internal/kernel), and the CSR row and
# column scales: FactoredInDegree, the tile grid's shared structure and its
# compare-instead-of-transpose test, and the scales through Transpose,
# SubMatrix, Validate, ToDenseRows and SpMM (+123 in internal/sparse), net of
# core's generic permute moving into sparse (-10).
# 17481 -> 17610: BTER's seeded stream at vector speed, every graph
# bit-identical: kernel.AddU64 (the refill) and kernel.FirstOutside63 (phase
# 1's Bernoulli runs), their scalar loops, AVX2 wrappers and dispatch entries
# (+65), and their install probe with the bound edges it plants, shared with
# the kernel's property test (+73), net of the loops leaving internal/gen
# (-9). They take BTER to about half its time where phase 1 dominates, and
# fullbatch-gemm's setup_s about 39 % lower.
# 17610 -> 17440: entry points without a production caller. kernel.Axpy (its
# scalar loop, AVX2 and NEON bodies, and install probe) and its one wrapper
# tensor.AxpyInPlace; sim.Graph.Bind, BindE and Declare, the bind forms that
# declare no accesses, with accessdecl's rule for them; and test-only
# methods (CSR.HasVals, SampledTrainer.Cursor, Graph.Bound, Pool.Name and
# Capacity, Table.Rows, Injector.Plan, RNG.Int63) deleted or moved into
# their tests, as are Trainer.ForwardOnly and part.Vector.Validate.
# 17440 -> 17438: the sampled matrix schedules its cells on structure alone,
# with one real epoch for the loss and one host-only count pass for the
# gather words (+27 in the root package), paid for by mggcn-train's one run
# tail for both modes and its table-driven -ordering flag (-26) and the
# shared checkpoint frame (-3).
# 17438 -> 17504: the sampler at memory speed, every block bit-identical
# (+60 in internal/sample): a read-ahead pass over each chunk of destination
# rows, Fisher-Yates over a 64-byte identity array into a bit mask for rows
# of at most 64 columns, so only longer rows sort (their pick indices), and
# the self-loop merged in one pass, net of the per-row sort and collapse
# loop. BenchmarkSamplerEpoch is about 2x faster at sampled-thin's shape and
# 1.7x at sampled-fanout's. Also the shared feature-cache order (+2 in core)
# and mggcn-train -sampled taking the sampled model's width unless -hidden
# is given (+4).
# 17504 -> 17591: the 512-bit GeMM tile, every golden bit-identical (+86 in
# internal/kernel, whose assembly loc.sh does not count): AVX-512 detection
# beside AVX2's, a best-first candidate list the init falls back along (so a
# refused avx512 set installs avx2, not scalar) and tests run whole, the
# tileSplit helper through which the AVX2 and NEON 4 x 16 bodies serve the
# 8 x 32 tile, and an install probe that checks each smaller tile as a window
# of one full scalar tile so the larger tile costs init no time. It takes
# about 16-19 % off sampled-fanout's epoch and makes its layers' GeMMs
# 1.4-1.6x faster. Also the rowBlock comment's sizes in internal/tensor (+1).
# 17591 -> 17551: one retry loop, in the executor. comm's per-collective
# loop with its policy, clock and gate is deleted (-168), as are the
# environment's retry fields and gate wiring (-10 in core, -2 in the root
# package), net of the loop, the error types it moved into internal/sim and
# the structure-only hook walk (+111), the injector's one seam and its
# refusal of a poison with no storage (+3), the chaos harness's shared
# trainer runner (+14) and the kernel probe's panic guard (+12).
# 17551 -> 17757: the loss at vector speed, every golden bit-identical:
# kernel.ExpRow and kernel.NormRow with their scalar bodies, AVX-512/AVX2
# wrappers, the FMA bit that decides whether they are offered, and an
# install probe that holds them to math.Exp on normal rows, planted specials
# and the subnormal band (+201 in internal/kernel, whose assembly loc.sh does
# not count), and the one-pass loss with its argmax counts (+6 in
# internal/nn). On a 2-vCPU AVX-512 Xeon they take traced nn.loss_busy_ms
# about 2.5-3.5x lower on fullbatch-gemm and sampled-thin, and
# fullbatch-gemm's epoch about 5-10 % lower.
# 17757 -> 17756: each kernel dispatch entry installs on its own, the first
# of its own bodies that passes its own probe, so a refused body moves no
# other entry. The whole-set candidates, their struct and the set loop are
# gone; the install probe is one function per entry, each building its own
# data, and each architecture lists an entry's bodies once. Impl() names each
# entry that fell back, so a degraded table never reads as the full one
# (-1 in internal/kernel, whose assembly loc.sh does not count).
# 17756 -> 17549: CAGNET records through the full-batch trainer under
# baseline.CAGNET's switches on a derated machine. Its hand-built recorder
# (EpochGraph, CAGNETConfig), schedcheck's and memcheck's cagnet special
# cases, the verifier's cagnet kind and part.TileNNZ/Vector.Owner (moved into
# part's tests) go, net of the config function, the Figs 10-14 column
# helpers and the DGL memory gate.
# 17549 -> 17460: DGL is the full-batch trainer on one derated GPU
# (baseline.DGL) and its footprint memcheck's no-reuse form at P = 1. The
# hand-written epoch sum and footprint (DGLConfig, NewDGL, EpochSeconds,
# MemoryBytes) go, the two baselines share one derating helper and one gated
# epoch in the experiments, and the order switch is no longer a field of
# core.Config, mggcn.Options or schedcheck.Model.
# 17460 -> 17516: the SpMM row kernel's AVX-512 body, every golden
# bit-identical (+56 in internal/kernel, whose assembly loc.sh does not
# count): its wrapper and offer (+20 with comments), and GODEBUG's
# cpu.avx2, cpu.avx512f and cpu.all read at init as the runtime reads them
# (+35), so one binary runs the AVX-512, AVX2 or scalar table and the
# bodies can be compared in alternating benchmark runs.
# 17516 -> 17798: dataset synthesis on every core with every graph
# bit-identical, which takes about a quarter off fullbatch-gemm's and
# sampled-thin's setup_s. In internal/gen (+194): the stream's exact
# jump-ahead (jump.go, +62: z^m mod the characteristic polynomial by
# square-and-multiply); in bter.go (+113) phase 1's rows cut into one run of
# equal draws per pool lane with the redraw hand-off, the block step fused
# with the scan in Bernoulli runs, the labels' and features' draws run
# beside phase 2, and the lane count the tests give BTER and Generate; and
# the draws split from the diffusion rounds, which run on every lane (+19).
# In internal/kernel (+82, its assembly not counted): kernel.AdvanceScan63
# in place of kernel.AddU64, with its scalar, AVX2 and AVX-512 wrappers
# (+39), and an install probe that holds each body to blocks built from
# their preimages (+43). In internal/graph (+6): Split sorts precomputed
# keys.
# 17798 -> 17945: BTER's Chung-Lu phase on every lane with every graph
# bit-identical, which takes about a third off fullbatch-spmm's setup_s. In
# internal/gen (+135): the lanes, jumps and reruns shared by both phases
# (onLanes in jump.go, +27, replacing phase 1's own copy), phase 2 in
# rounds sized from the deficit, an edge table of cache-sized parts that
# keeps each round's first occurrences in attempt order and trims the last
# round's overshoot, one counting-sort helper, and the CSR built from the
# parts on every lane (the transposition by row ranges sorts each row); net
# of the edge set, the serial loop and its CSR scatter, now the tests'
# oracle. In
# internal/graph (+12): Split ranks its keys by one counting pass on their
# top bits instead of sorting them (about 6x faster at n = 120 000).
# 17945 -> 17581: BTER draws its edges from internal/rng's counter
# generator, so the math/rand stream copy, its jump-ahead and rerun, and
# kernel.AdvanceScan63/FirstOutside63 with their probes are gone.
# 17581 -> 17513: the executor stamps every task, and the allocation meter
# is memcheck.MeteredSlabs, a sweep over the stamps sharing the liveness
# pass's slab walk; sim.AllocMeter, its graph bracket and maps are gone.
# 17513 -> 17471: flaky tasks retry in the executor and an exhausted retry
# evicts the suspect on both trainers. sim.TransientTaskError, the elastic
# loop's recoveryPolicy and transient-task case, and the chaos harness's
# second trainer path are gone, net of the injected-failure column in the
# sampled experiment's recovery table.
# 17471 -> 17420: the experiments train and time through the library's own
# paths. The accuracy experiment's graph-blind MLP is the reference GCN over
# the identity, so its hand-written forward and backward pass are gone, and
# every full-batch cell and mggcn.Timeline build and run their epoch through
# one helper (-50 in the root package). examples/strategies loops over the
# public strategy constants instead of importing internal/core (-1).
# 17420 -> 16881: the forward-only distributed GAT and everything that
# existed only to carry it: its recorder and SpMM hooks (-331 in core),
# memcheck's and schedcheck's gat forms with the all-gather collective and
# its shape rule, mggcn-verify's gat subject, chaos runner and abort
# expectation (-89), and the experiment's Products forward loop (-25).
total_ceiling=16881

find . -name '*.go' ! -name '*_test.go' \
	! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.bench_build/*' ! -path './.git/*' \
	-exec wc -l {} + |
	awk -v check="${1:-}" -v ceiling="$core_ceiling" -v total_ceiling="$total_ceiling" '
		$2 == "total" { next } # wc prints one per batch of files
		{
			pkg = $2
			sub(/^\.\//, "", pkg)
			if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
			loc[pkg] += $1
			total += $1
		}
		END {
			n = 0
			for (p in loc) names[++n] = p
			# insertion sort: awk has no portable sort
			for (i = 2; i <= n; i++) {
				v = names[i]
				for (j = i - 1; j > 0 && names[j] > v; j--) names[j + 1] = names[j]
				names[j + 1] = v
			}
			for (i = 1; i <= n; i++) printf "%7d  %s\n", loc[names[i]], names[i]
			printf "%7d  total\n", total
			if (check != "-check") exit 0
			if (loc["internal/core"] > ceiling) {
				printf "internal/core has %d non-test lines, ceiling is %d (scripts/loc.sh)\n", loc["internal/core"], ceiling > "/dev/stderr"
				exit 1
			}
			if (total > total_ceiling) {
				printf "the repository has %d non-test lines, ceiling is %d (scripts/loc.sh)\n", total, total_ceiling > "/dev/stderr"
				exit 1
			}
		}'
