#!/usr/bin/env bash
# CI-style gate: formatting, lints, tests, and an end-to-end smoke run.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no too_many_arguments allow in relaynet (the link side has one owner: network::Egress)"
if grep -rn 'clippy::too_many_arguments' crates/relaynet/src; then echo "    FAIL: pass-through plumbing is creeping back" >&2; exit 1; fi

echo "==> no cs-lint suppression in simcore (the kernel needs no escape hatch)"
if grep -rn 'cs-lint: allow(' crates/simcore/src; then echo "    FAIL: a cs-lint suppression crept into simcore" >&2; exit 1; fi

echo "==> cs-lint: determinism-and-invariant gate (DESIGN.md §14)"
cargo build -q --release -p cs-lint
lint_bin=target/release/cs-lint
lint_t0=$(date +%s%N)
"${lint_bin}"
lint_ms=$(( ($(date +%s%N) - lint_t0) / 1000000 ))
echo "    self-scan took ${lint_ms} ms (budget: 2000 ms)"
if [ "${lint_ms}" -ge 2000 ]; then
    echo "    FAIL: cs-lint self-scan blew its 2 s budget" >&2
    exit 1
fi

echo "==> cs-lint --json smoke (schema: tool, files_scanned, rule_counts)"
lint_json=$("${lint_bin}" --json)
echo "${lint_json}" | grep -q '"tool": "cs-lint"'
echo "${lint_json}" | grep -q '"files_scanned": '
echo "${lint_json}" | grep -q '"rule_counts": '

echo "==> cs-lint dirty-tree smoke (the gate fails on a planted wall-clock read)"
scratch_dir=$(mktemp -d)
trap 'rm -rf "${scratch_dir}"' EXIT
mkdir -p "${scratch_dir}/crates/relaynet/src"
printf 'pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n' \
    > "${scratch_dir}/crates/relaynet/src/lib.rs"
dirty_rc=0
dirty_out=$("${lint_bin}" --root "${scratch_dir}") || dirty_rc=$?
if [ "${dirty_rc}" -ne 1 ] || ! grep -q ': wall-clock: ' <<< "${dirty_out}"; then
    echo "    FAIL: cs-lint should exit 1 with a wall-clock finding on the dirty tree (exit ${dirty_rc})" >&2
    exit 1
fi

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> stranded-teardown sweep: three recipes, 40 / 1500 / 400 worlds, zero strands"
cargo test -q --release --test teardown_strand -- --ignored

echo "==> smoke: cargo run --example quickstart"
cargo run -q --release --example quickstart

echo "==> smoke: cargo run --example churn_web (workload engine: multi-stream + churn)"
cargo run -q --release --example churn_web

echo "==> smoke: cargo run --example async_sweep (threaded runtime + oracle check)"
cargo run -q --release --example async_sweep

echo "==> smoke: cargo run --example consensus_scale (7k-relay directory + epoch churn)"
cargo run -q --release --example consensus_scale

echo "==> smoke: cargo run --example fault_storm (crash injection + recovery loop)"
cargo run -q --release --example fault_storm

echo "==> smoke: fig1_cwnd (Figure 1 upper panel, bottleneck 1 hop out)"
cargo run -q --release -p cs-bench --bin fig1_cwnd -- --distance 1

echo "==> smoke: fig1_cdf (Figure 1 lower panel, 10 circuits, 1 repetition)"
cargo run -q --release -p cs-bench --bin fig1_cdf -- --circuits 10 --reps 1

echo "==> smoke: ablations midflow policies (A6 mid-flow upgrade, A7 selection policies)"
cargo run -q --release -p cs-bench --bin ablations -- midflow policies

echo "==> threaded-runtime differential suite (oracle fingerprints, pool flatness)"
cargo test -q --test async_runtime

echo "==> fault-recovery suite (conservation + fingerprint invariance under faults)"
cargo test -q --test fault_recovery

echo "==> telemetry differential suite (sketch vs exact CDF, shuffle-merge invariance, Prometheus golden file)"
cargo test -q --test telemetry_sketch

echo "==> csbench smoke: all five workloads, quick mode (includes its determinism double-run)"
cargo run -q --release -p cs-bench --bin csbench -- run --quick --seed 1 --json "${scratch_dir}/csbench_quick.json"

echo "==> csbench sim_digest golden: world fingerprints unmoved (CS_BLESS=1 re-blesses; a behaviour PR must say so)"
grep -o '"workload": "[^"]*"\|"sim_digest": "[^"]*"' "${scratch_dir}/csbench_quick.json" \
    | cut -d'"' -f4 | paste -d' ' - - > "${scratch_dir}/csbench_quick.digests"
if [ -n "${CS_BLESS:-}" ]; then
    cp "${scratch_dir}/csbench_quick.digests" scripts/csbench_quick.digests
    echo "    blessed scripts/csbench_quick.digests"
elif ! diff -u scripts/csbench_quick.digests "${scratch_dir}/csbench_quick.digests"; then
    echo "    FAIL: a workload's sim_digest moved — simulated behaviour changed" >&2
    exit 1
fi

echo "==> bench_pairs smoke: HEAD against itself, every workload and end-to-end metric, one 1 s pair each (the no-regression table in one command)"
scripts/bench_pairs.sh HEAD HEAD all --metric all --pairs 1 --seconds 1 \
    | tee "${scratch_dir}/bench_pairs.out"
grep -q '; peak_rss_mib, lower is better; ' "${scratch_dir}/bench_pairs.out" || {
    echo "    FAIL: --metric all did not take directions from BENCHMARK.json" >&2
    exit 1
}
for w in path3_bulk path3_short star50_churn star16_faults consensus7k_epochs; do
    grep -q "^workload ${w}, " "${scratch_dir}/bench_pairs.out" || {
        echo "    FAIL: all ran no ${w} block" >&2
        exit 1
    }
done
for m in cells_per_s setup_s peak_rss_mib sim_ttlb_p50_ms sim_ttlb_p99_ms; do
    [ "$(grep -c "^${m}: b/a of medians " "${scratch_dir}/bench_pairs.out")" -eq 5 ] || {
        echo "    FAIL: --metric all did not report ${m} once per workload" >&2
        exit 1
    }
done
[ "$(grep -c '^sim_ttlb_\*: identical on every pair$' "${scratch_dir}/bench_pairs.out")" -eq 5 ] || {
    echo "    FAIL: an A/A pair did not reproduce its simulated statistics" >&2
    exit 1
}
[ "$(grep -c '^sim_digest: identical on every pair$' "${scratch_dir}/bench_pairs.out")" -eq 5 ] || {
    echo "    FAIL: an A/A pair did not reproduce its worlds' sim_digest" >&2
    exit 1
}

echo "==> all checks passed"
