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

echo "==> fault handling has one owner (network/faults.rs): no fault state in the protocol stages' non-test code"
for stage in circuit_build recognition feedback conn client_xfer; do
    src=crates/relaynet/src/network/${stage}.rs
    if sed '/^#\[cfg(test)\]/,$d' "${src}" | grep -n '\.faults\b\|FaultState\|stale_or_protocol_error'; then
        echo "    FAIL: ${src} encodes fault policy; route it through network/faults.rs" >&2
        exit 1
    fi
done

echo "==> placement has one owner (network/placement.rs): no placement state in the other stages' non-test code"
for stage in circuit_build faults conn recognition feedback client_xfer; do
    src=crates/relaynet/src/network/${stage}.rs
    if sed '/^#\[cfg(test)\]/,$d' "${src}" | grep -nE '\.placement\b|PlacementState|SelectionEngine|DirectoryView'; then
        echo "    FAIL: ${src} reaches into placement state; call a method of network/placement.rs" >&2
        exit 1
    fi
done
if sed '/^#\[cfg(test)\]/,$d' crates/relaynet/src/network/mod.rs | grep -nE 'SelectionEngine|DirectoryView'; then
    echo "    FAIL: network/mod.rs drives the selection engine; that is network/placement.rs's job" >&2
    exit 1
fi

echo "==> placement draws one way (the Fenwick SelectionEngine): no sampler choice in the builder's or network's non-test code"
for src in crates/relaynet/src/builder.rs crates/relaynet/src/network/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "${src}" | grep -nE 'SamplerKind::Linear|LinearSampler|sampler:([^:]|$)'; then
        echo "    FAIL: ${src} chooses a sampler; worlds place through SamplerKind::Fenwick only" >&2
        exit 1
    fi
done

echo "==> the topology is the address book: no routing table or overlay<->node map in relaynet's non-test code"
topology_hits=$(for src in $(find crates/relaynet/src -name '*.rs' | sort); do
    sed '/^#\[cfg(test)\]/,$d' "${src}" | grep -nE '\bRouter\b|net_node_of|overlay_of_net|NodeId\(' | sed "s|^|${src}:|" || true
done)
if [ -n "${topology_hits}" ]; then
    echo "${topology_hits}"
    echo "    FAIL: $(wc -l <<< "${topology_hits}") hits; route and address through the world's netsim::topology::Topology (Egress::next_link, Topology::node / index_of)" >&2
    exit 1
fi

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

echo "==> DESIGN.md under 1,000 lines, and design_refs: every DESIGN.md §N citation resolves"
design_lines=$(wc -l < DESIGN.md)
echo "    DESIGN.md: ${design_lines} lines (limit: 999)"
if [ "${design_lines}" -ge 1000 ]; then
    echo "    FAIL: DESIGN.md reached 1,000 lines. Per-PR measurements go to CHANGES.md; a prototype that was measured and dropped is one row of the DESIGN §5 register" >&2
    exit 1
fi
cargo test -q --test design_refs

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
