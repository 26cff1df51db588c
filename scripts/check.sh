#!/usr/bin/env bash
# CI-style gate: formatting, lints, tests, and an end-to-end smoke run.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings: every intra-doc link resolves to a public item"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cs-lint: determinism, invariant and stage-boundary gate (DESIGN.md §14)"
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

echo "==> cs-lint dirty-tree smoke (the gate fails on a planted wall-clock read and a planted stage-boundary crossing)"
scratch_dir=$(mktemp -d)
trap 'rm -rf "${scratch_dir}"' EXIT
mkdir -p "${scratch_dir}/crates/relaynet/src/network"
printf 'pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n' \
    > "${scratch_dir}/crates/relaynet/src/lib.rs"
printf 'fn f(n: &N) { n.faults; }\n' > "${scratch_dir}/crates/relaynet/src/network/conn.rs"
dirty_rc=0
dirty_out=$("${lint_bin}" --root "${scratch_dir}") || dirty_rc=$?
for rule in wall-clock stage-boundary; do
    if [ "${dirty_rc}" -ne 1 ] || ! grep -q ": ${rule}: " <<< "${dirty_out}"; then
        echo "    FAIL: cs-lint should exit 1 with a ${rule} finding on the dirty tree (exit ${dirty_rc})" >&2
        exit 1
    fi
done

echo "==> DESIGN.md under 1,000 lines, and design_refs: every DESIGN.md §N citation resolves"
design_lines=$(wc -l < DESIGN.md)
echo "    DESIGN.md: ${design_lines} lines (limit: 999)"
if [ "${design_lines}" -ge 1000 ]; then
    echo "    FAIL: DESIGN.md reached 1,000 lines. Per-PR measurements go to CHANGES.md; a prototype that was measured and dropped is one row of the DESIGN §5 register" >&2
    exit 1
fi
cargo test -q --test design_refs

echo "==> cargo test -q --workspace (includes the async_runtime, fault_recovery and telemetry_sketch suites)"
cargo test -q --workspace

echo "==> stranded-teardown sweep: three recipes, 40 / 1500 / 400 worlds, zero strands"
cargo test -q --release --test teardown_strand -- --ignored

echo "==> calendar slow paths, long form: aliased lists, empty years, pushes below the floor (64 seeds x 10^5 ops against the heap)"
cargo test -q --release -p simcore --test queue_differential -- --ignored

echo "==> slab long form: slots, LIFO reuse, bounded growth and FIFO lists (64 seeds x 1.6 x 10^5 ops against a model)"
cargo test -q --release -p simcore --test slab_differential -- --ignored

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

echo "==> smoke: fig1_cwnd (Figure 1 upper panels, every bottleneck distance)"
cargo run -q --release -p cs-bench --bin fig1_cwnd | tee "${scratch_dir}/figures.out"

echo "==> smoke: fig1_cdf (Figure 1 lower panel, 10 circuits, 1 repetition)"
cargo run -q --release -p cs-bench --bin fig1_cdf -- --circuits 10 --reps 1 | tee -a "${scratch_dir}/figures.out"

echo "==> smoke: ablations gamma theta init-cwnd compensation distance midflow policies (A1 γ, A1b θ, A2 initial window: every sweep that sets a CcConfig field; A3 both ramp exits, A4 bottleneck distance, A6 mid-flow upgrade, A7 selection policies; only A5 load is left out)"
cargo run -q --release -p cs-bench --bin ablations -- gamma theta init-cwnd compensation distance midflow policies \
    | tee -a "${scratch_dir}/figures.out"

echo "==> figure digests: the .dat files the smokes wrote are byte-identical (CS_BLESS=1 re-blesses; a behaviour PR must say so)"
grep -o 'target/figures/[^/]*\.dat$' "${scratch_dir}/figures.out" | xargs sha256sum > "${scratch_dir}/figures.digests"
if [ -n "${CS_BLESS:-}" ]; then
    cp "${scratch_dir}/figures.digests" scripts/figures.digests
    echo "    blessed scripts/figures.digests"
elif ! diff -u scripts/figures.digests "${scratch_dir}/figures.digests"; then
    echo "    FAIL: a figure's .dat file moved — simulated behaviour changed" >&2
    exit 1
fi

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

echo "==> csbench traced path3_bulk: the per-layer rows every perf claim is attributed with"
cargo run -q --release -p cs-bench --bin csbench -- --workload path3_bulk --seed 1 --seconds 1 --trace 1 \
    > "${scratch_dir}/csbench_trace.out"
for row in stack.simcore_ns_per_cell stack.netsim_ns_per_cell stack.torcell_ns_per_cell \
    stack.backtap_ns_per_cell stack.relaynet_ns_per_cell stack.unattributed_ns_per_cell torcell.strip_ns; do
    grep -qE "^ *${row//./\\.} +-?[0-9.]+ " "${scratch_dir}/csbench_trace.out" || {
        echo "    FAIL: the traced run printed no ${row} row" >&2
        exit 1
    }
done

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
