#!/usr/bin/env bash
# The rule a performance claim is held to (ROADMAP.md, standing rules) in one
# command: interleaved pairs of two revisions' csbench on a workload,
# alternating which side runs first, the same seed on both sides of a pair
# (pair i uses seed i).
#
#   scripts/bench_pairs.sh <rev-a> <rev-b> <workload|all> [--metric M|all] [--pairs N] [--seconds S]
#
# <workload> `all` runs every workload of BENCHMARK.json in turn, each in
# a block of its own that starts with a "workload <name>, " line; with
# `--metric all` that is the whole no-regression table in one command.
# Each revision's csbench is built from that revision's own manifest (a
# `git archive` of it under .bench_build/<sha>/), so the two sides differ in
# nothing but the committed source. --metric names the end-to-end metric the
# rule is applied to (default cells_per_s), or `all` for every end-to-end
# metric of BENCHMARK.json, read from the same runs; whether higher or lower
# wins is each metric's `better` field there. Prints every metric per pair
# with the b/a ratio, then per metric: each side's median and quartiles, b's
# wins, whether the gain rule holds for b (>= 9 of 10 pairs won, median
# shift in the better direction beyond a's interquartile spread), and b's
# worst pair against a next to the bound BENCHMARK.json allows; the first
# line of each metric's block starts with "<metric>: ". Last in each
# workload's block, whether
# sim_ttlb_p50/p99 were identical on every pair (they must be for a change
# that does not touch simulated behaviour); where they were not, both values
# of each such pair and the largest relative shift per metric next to its
# bound. Then the stronger check, whether each pair's two sim_digests (an
# FNV digest of every world's fingerprint, from csbench's csbench-detail
# line) were identical; where they were not, both digests of each such pair.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench_pairs.sh <rev-a> <rev-b> <workload|all> [--metric M|all] [--pairs N] [--seconds S]" >&2
    exit 2
}

[ $# -ge 3 ] || usage
rev_a=$1 rev_b=$2 workloads=$3
shift 3
metric=cells_per_s pairs=10 seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
        --metric) metric=${2:?--metric needs a value}; shift 2 ;;
        --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
        --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
        *) usage ;;
    esac
done

# Builds <rev>'s csbench and prints the path of the binary.
build() {
    local sha dir
    sha=$(git rev-parse --short=12 "$1^{commit}")
    dir=.bench_build/${sha}
    if [ ! -d "${dir}/src" ]; then
        mkdir -p "${dir}/src"
        git archive "${sha}" | tar -x -C "${dir}/src"
    fi
    cargo build --release --quiet --target-dir "${dir}/target" \
        --manifest-path "${dir}/src/crates/bench/src/bin/csbench/Cargo.toml"
    echo "${dir}/target/release/csbench"
}

# The value of metric <name> in csbench result line <line>.
field() {
    sed -n "s/.*\"$2\": {\"value\": \([^,}]*\).*/\1/p" <<< "$1"
}

# Field <key> ("bound" or "better") of end-to-end metric <name> in
# BENCHMARK.json; empty for anything else.
spec() {
    grep -A 4 "\"name\": \"$1\"" BENCHMARK.json \
        | sed -n "s/.*\"$2\": \"\{0,1\}\([0-9.a-z]*\).*/\1/p" | head -n 1 || true
}

if [ "${workloads}" = all ]; then
    workloads=$(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json | tr '\n' ' ')
fi
if [ "${metric}" = all ]; then
    metrics=$(sed -n '/"end_to_end"/,/"per_layer"/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json | tr '\n' ' ')
else
    metrics=${metric}
fi
highers="" bounds="" directions=""
for m in ${metrics}; do
    better=$(spec "${m}" better) bound=$(spec "${m}" bound)
    if [ -z "${bound}" ] || [ -z "${better}" ]; then
        echo "bench_pairs: ${m} is not an end-to-end metric of BENCHMARK.json" >&2
        exit 2
    fi
    highers+="$([ "${better}" = higher ] && echo 1 || echo 0) "
    bounds+="${bound} "
    directions+="; ${m}, ${better} is better"
done

# Runs <bin> with <seed>; prints the value of each of ${metrics}, then
# sim_ttlb_p50_ms, sim_ttlb_p99_ms and sim_digest.
run() {
    local all line digest out="" m v
    all=$("$1" --workload "${workload}" --seed "$2" --seconds "${seconds}" --trace 0 2>/dev/null)
    line=$(tail -n 1 <<< "${all}")
    digest=$(sed -n 's/^csbench-detail: .*"sim_digest": "\([0-9a-f]*\)".*/\1/p' <<< "${all}")
    if [ -z "${digest}" ]; then
        echo "bench_pairs: $1 gave no sim_digest for ${workload} seed $2" >&2
        exit 1
    fi
    for m in ${metrics} sim_ttlb_p50_ms sim_ttlb_p99_ms; do
        v=$(field "${line}" "${m}")
        if [ -z "${v}" ]; then
            echo "bench_pairs: $1 gave no ${m} for ${workload} seed $2" >&2
            exit 1
        fi
        out+="${v} "
    done
    echo "${out}${digest}"
}

# Reads one workload's rows (a's values, then b's, one pair per line) and
# prints the per-metric summaries and the sim_ttlb_* and sim_digest verdicts.
summarize() {
    awk -v names="${metrics}" -v highers="${highers}" -v bounds="${bounds}" \
    -v p50_bound="$(spec sim_ttlb_p50_ms bound)" -v p99_bound="$(spec sim_ttlb_p99_ms bound)" '
    # Quantile q of v[1..n] (sorted ascending), linear interpolation.
    function quantile(v, n, q,    pos, lo) {
        pos = 1 + (n - 1) * q
        lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    # Notes one pair of one simulated statistic; remembers those that differ.
    function compare(metric, pair, va, vb,    shift) {
        if (va == vb) return 0
        shift = (vb - va) / va; if (shift < 0) shift = -shift
        if (shift > worst[metric]) worst[metric] = shift
        differing = differing sprintf("  pair %d (seed %d): %s a %s  b %s  (%+.4f%% of a)\n", \
            pair, pair, metric, va, vb, 100 * (vb - va) / va)
        return 1
    }
    function verdict(metric, bound) {
        if (metric in worst)
            printf "  %s: largest shift %.4f%% of a (BENCHMARK.json bound %g%%)\n", metric, 100 * worst[metric], 100 * bound
        else
            printf "  %s: identical on every pair\n", metric
    }
    function sort(v, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    # The block for metric j: medians, quartiles, wins, the gain rule and
    # the worst pair.
    function summary(j,    i, a, b, wins, losses, hi, worse, worse_pair, a_med, b_med, a_iqr, shift, met) {
        hi = higher[j]; worse = 0; worse_pair = 0
        for (i = 1; i <= n; i++) {
            a[i] = av[j, i]; b[i] = bv[j, i]
            # A win is b beating a in the direction BENCHMARK.json calls better.
            if (hi ? b[i] > a[i] : b[i] < a[i]) wins++; else if (b[i] != a[i]) losses++
            # How much worse than a this pair made b, as a share of a.
            shift = a[i] ? (hi ? a[i] - b[i] : b[i] - a[i]) / a[i] : 0
            if (shift > worse) { worse = shift; worse_pair = i }
        }
        sort(a, n); sort(b, n)
        a_med = quantile(a, n, 0.5); b_med = quantile(b, n, 0.5)
        a_iqr = quantile(a, n, 0.75) - quantile(a, n, 0.25)
        shift = hi ? b_med - a_med : a_med - b_med
        met = (n >= 10 && wins * 10 >= n * 9 && shift > a_iqr)
        printf "%s: b/a of medians %.3f; b wins %d of %d (a wins %d); gain rule %s; worst pair %.2f%% worse than a (BENCHMARK.json bound %g%%)\n", \
            name[j], a_med ? b_med / a_med : 1, wins, n, losses, met ? "met" : "not met", 100 * worse, 100 * bound[j]
        printf "  a: median %.6g  quartiles %.6g .. %.6g\n", a_med, quantile(a, n, 0.25), quantile(a, n, 0.75)
        printf "  b: median %.6g  quartiles %.6g .. %.6g\n", b_med, quantile(b, n, 0.25), quantile(b, n, 0.75)
        printf "  gain rule: >= 10 pairs, wins >= 9/10, median shift %.6g > a IQR %.6g\n", shift, a_iqr
        if (worse_pair) printf "  worst pair: %d (seed %d)\n", worse_pair, worse_pair
    }
    BEGIN { k = split(names, name, " "); split(highers, higher, " "); split(bounds, bound, " "); w = k + 3 }
    {
        n++
        for (j = 1; j <= k; j++) { av[j, n] = $j; bv[j, n] = $(w + j) }
        if (compare("sim_ttlb_p50_ms", n, $(k + 1), $(w + k + 1)) + compare("sim_ttlb_p99_ms", n, $(k + 2), $(w + k + 2))) moved++
        # Compared as strings: a digest of decimal digits only must not
        # be read as a number.
        if (("" $(k + 3)) != ("" $(w + k + 3))) {
            digests_moved++
            digests_differing = digests_differing sprintf("  pair %d (seed %d): sim_digest a %s  b %s\n", n, n, $(k + 3), $(w + k + 3))
        }
    }
    END {
        for (j = 1; j <= k; j++) summary(j)
        if (moved) {
            printf "sim_ttlb_*: DIFFERED on %d pair(s)\n%s", moved, differing
            verdict("sim_ttlb_p50_ms", p50_bound); verdict("sim_ttlb_p99_ms", p99_bound)
        } else printf "sim_ttlb_*: identical on every pair\n"
        if (digests_moved) printf "sim_digest: DIFFERED on %d pair(s)\n%s", digests_moved, digests_differing
        else printf "sim_digest: identical on every pair\n"
    }'
}

bin_a=$(build "${rev_a}")
bin_b=$(build "${rev_b}")
echo "a = ${rev_a} (${bin_a})"
echo "b = ${rev_b} (${bin_b})"

for workload in ${workloads}; do
    echo "workload ${workload}, ${pairs} pair(s), --seconds ${seconds}${directions}"
    rows=""
    for i in $(seq 1 "${pairs}"); do
        if [ $((i % 2)) -eq 1 ]; then
            a=$(run "${bin_a}" "${i}")
            b=$(run "${bin_b}" "${i}")
            order="a first"
        else
            b=$(run "${bin_b}" "${i}")
            a=$(run "${bin_a}" "${i}")
            order="b first"
        fi
        echo "${a} ${b}" | awk -v i="${i}" -v order="${order}" -v names="${metrics}" '{
            k = split(names, name, " "); w = k + 3
            for (j = 1; j <= k; j++)
                printf "pair %2d (seed %d, %s)  %-15s a %10.6g  b %10.6g  b/a %.3f\n", \
                    i, i, order, name[j], $j, $(w + j), $j ? $(w + j) / $j : 1
        }'
        rows+="${a} ${b}"$'\n'
    done
    printf '%s' "${rows}" | summarize
done
