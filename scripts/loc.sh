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
# permutes Â's per-vertex scale.
core_ceiling=3306
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
total_ceiling=17610

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
