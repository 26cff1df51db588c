#!/usr/bin/env bash
# The rule a performance claim is held to (ROADMAP.md, standing rules) in one
# command: interleaved pairs of two revisions' csbench on one workload,
# alternating which side runs first, the same seed on both sides of a pair
# (pair i uses seed i).
#
#   scripts/bench_pairs.sh <rev-a> <rev-b> <workload> [--metric M] [--pairs N] [--seconds S]
#
# Each revision's csbench is built from that revision's own manifest (a
# `git archive` of it under .bench_build/<sha>/), so the two sides differ in
# nothing but the committed source. --metric names the end-to-end metric the
# rule is applied to (default cells_per_s); whether higher or lower wins is
# its `better` field in BENCHMARK.json. Prints the metric per pair with the
# b/a ratio, then each side's median and quartiles, b's wins, whether the
# gain rule holds for b (>= 9 of 10 pairs won, median shift in the better
# direction beyond a's interquartile spread), and whether sim_ttlb_p50/p99
# were identical on every pair (they must be for a change that does not
# touch simulated behaviour); where they were not, both values of each such
# pair and the largest relative shift per metric next to the bound
# BENCHMARK.json allows it.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench_pairs.sh <rev-a> <rev-b> <workload> [--metric M] [--pairs N] [--seconds S]" >&2
    exit 2
}

[ $# -ge 3 ] || usage
rev_a=$1 rev_b=$2 workload=$3
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

# Runs <bin> with <seed>; prints "<metric> sim_ttlb_p50_ms sim_ttlb_p99_ms".
run() {
    local line m p50 p99
    line=$("$1" --workload "${workload}" --seed "$2" --seconds "${seconds}" --trace 0 2>/dev/null | tail -n 1)
    m=$(field "${line}" "${metric}")
    p50=$(field "${line}" sim_ttlb_p50_ms)
    p99=$(field "${line}" sim_ttlb_p99_ms)
    if [ -z "${m}" ] || [ -z "${p50}" ] || [ -z "${p99}" ]; then
        echo "bench_pairs: $1 gave no result line for ${workload} seed $2" >&2
        exit 1
    fi
    echo "${m} ${p50} ${p99}"
}

# Field <key> ("bound" or "better") of end-to-end metric <name> in
# BENCHMARK.json; empty for anything else.
spec() {
    grep -A 4 "\"name\": \"$1\"" BENCHMARK.json \
        | sed -n "s/.*\"$2\": \"\{0,1\}\([0-9.a-z]*\).*/\1/p" | head -n 1 || true
}

better=$(spec "${metric}" better)
if [ -z "$(spec "${metric}" bound)" ] || [ -z "${better}" ]; then
    echo "bench_pairs: ${metric} is not an end-to-end metric of BENCHMARK.json" >&2
    exit 2
fi

bin_a=$(build "${rev_a}")
bin_b=$(build "${rev_b}")
echo "a = ${rev_a} (${bin_a})"
echo "b = ${rev_b} (${bin_b})"
echo "workload ${workload}, ${pairs} pair(s), --seconds ${seconds}; ${metric}, ${better} is better"

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
    echo "${a} ${b}" | awk -v i="${i}" -v order="${order}" \
        '{ printf "pair %2d (seed %d, %s)  a %10.6g  b %10.6g  b/a %.3f\n", i, i, order, $1, $4, $4 / $1 }'
    rows+="${a} ${b}"$'\n'
done

printf '%s' "${rows}" | awk -v higher="$([ "${better}" = higher ] && echo 1 || echo 0)" \
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
    {
        n++
        a[n] = $1; b[n] = $4
        # A win is b beating a in the direction BENCHMARK.json calls better.
        if (higher ? $4 > $1 : $4 < $1) wins++; else if ($4 != $1) losses++
        if (compare("sim_ttlb_p50_ms", n, $2, $5) + compare("sim_ttlb_p99_ms", n, $3, $6)) moved++
    }
    END {
        sort(a, n); sort(b, n)
        a_med = quantile(a, n, 0.5); b_med = quantile(b, n, 0.5)
        a_iqr = quantile(a, n, 0.75) - quantile(a, n, 0.25)
        printf "a: median %.6g  quartiles %.6g .. %.6g\n", a_med, quantile(a, n, 0.25), quantile(a, n, 0.75)
        printf "b: median %.6g  quartiles %.6g .. %.6g\n", b_med, quantile(b, n, 0.25), quantile(b, n, 0.75)
        printf "b/a of medians %.3f; b wins %d of %d (a wins %d)\n", b_med / a_med, wins, n, losses
        shift = higher ? b_med - a_med : a_med - b_med
        met = (n >= 10 && wins * 10 >= n * 9 && shift > a_iqr)
        printf "gain rule for b (>= 10 pairs, wins >= 9/10, median shift %.6g > a IQR %.6g): %s\n", \
            shift, a_iqr, met ? "met" : "not met"
        if (moved) {
            printf "sim_ttlb_*: DIFFERED on %d pair(s)\n%s", moved, differing
            verdict("sim_ttlb_p50_ms", p50_bound); verdict("sim_ttlb_p99_ms", p99_bound)
        } else printf "sim_ttlb_*: identical on every pair\n"
    }'
