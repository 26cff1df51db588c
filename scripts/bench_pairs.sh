#!/usr/bin/env bash
# The rule a performance claim is held to (ROADMAP.md, standing rules) in one
# command: interleaved pairs of two revisions' csbench on one workload,
# alternating which side runs first, the same seed on both sides of a pair
# (pair i uses seed i).
#
#   scripts/bench_pairs.sh <rev-a> <rev-b> <workload> [--pairs N] [--seconds S]
#
# Each revision's csbench is built from that revision's own manifest (a
# `git archive` of it under .bench_build/<sha>/), so the two sides differ in
# nothing but the committed source. Prints cells_per_s per pair with the
# b/a ratio, then each side's median and quartiles, b's wins, whether the
# gain rule holds for b (>= 9 of 10 pairs won, median shift beyond a's
# interquartile spread), and whether sim_ttlb_p50/p99 were identical on
# every pair (they must be for a speed-only change); where they were not,
# both values of each such pair and the largest relative shift per metric
# next to the bound BENCHMARK.json allows it.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench_pairs.sh <rev-a> <rev-b> <workload> [--pairs N] [--seconds S]" >&2
    exit 2
}

[ $# -ge 3 ] || usage
rev_a=$1 rev_b=$2 workload=$3
shift 3
pairs=10 seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
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

# Runs <bin> with <seed>; prints "cells_per_s sim_ttlb_p50_ms sim_ttlb_p99_ms".
run() {
    local out
    out=$("$1" --workload "${workload}" --seed "$2" --seconds "${seconds}" --trace 0 2>/dev/null \
        | tail -n 1 \
        | sed -n 's/.*"cells_per_s": {"value": \([^,}]*\).*"sim_ttlb_p50_ms": {"value": \([^,}]*\).*"sim_ttlb_p99_ms": {"value": \([^,}]*\).*/\1 \2 \3/p')
    if [ -z "${out}" ]; then
        echo "bench_pairs: $1 gave no result line for ${workload} seed $2" >&2
        exit 1
    fi
    echo "${out}"
}

# The bound BENCHMARK.json puts on end-to-end metric <name>.
bound() {
    grep -A 4 "\"name\": \"$1\"" BENCHMARK.json | sed -n 's/.*"bound": \([0-9.]*\).*/\1/p' | head -n 1
}

bin_a=$(build "${rev_a}")
bin_b=$(build "${rev_b}")
echo "a = ${rev_a} (${bin_a})"
echo "b = ${rev_b} (${bin_b})"
echo "workload ${workload}, ${pairs} pair(s), --seconds ${seconds}; cells_per_s, higher is better"

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
        '{ printf "pair %2d (seed %d, %s)  a %10.0f  b %10.0f  b/a %.3f\n", i, i, order, $1, $4, $4 / $1 }'
    rows+="${a} ${b}"$'\n'
done

printf '%s' "${rows}" | awk -v p50_bound="$(bound sim_ttlb_p50_ms)" -v p99_bound="$(bound sim_ttlb_p99_ms)" '
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
        if ($4 > $1) wins++; else if ($4 < $1) losses++
        if (compare("sim_ttlb_p50_ms", n, $2, $5) + compare("sim_ttlb_p99_ms", n, $3, $6)) moved++
    }
    END {
        sort(a, n); sort(b, n)
        a_med = quantile(a, n, 0.5); b_med = quantile(b, n, 0.5)
        a_iqr = quantile(a, n, 0.75) - quantile(a, n, 0.25)
        printf "a: median %.0f  quartiles %.0f .. %.0f\n", a_med, quantile(a, n, 0.25), quantile(a, n, 0.75)
        printf "b: median %.0f  quartiles %.0f .. %.0f\n", b_med, quantile(b, n, 0.25), quantile(b, n, 0.75)
        printf "b/a of medians %.3f; b wins %d of %d (a wins %d)\n", b_med / a_med, wins, n, losses
        met = (n >= 10 && wins * 10 >= n * 9 && b_med - a_med > a_iqr)
        printf "gain rule for b (>= 10 pairs, wins >= 9/10, median shift %.0f > a IQR %.0f): %s\n", \
            b_med - a_med, a_iqr, met ? "met" : "not met"
        if (moved) {
            printf "sim_ttlb_*: DIFFERED on %d pair(s)\n%s", moved, differing
            verdict("sim_ttlb_p50_ms", p50_bound); verdict("sim_ttlb_p99_ms", p99_bound)
        } else printf "sim_ttlb_*: identical on every pair\n"
    }'
