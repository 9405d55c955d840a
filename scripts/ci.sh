#!/usr/bin/env bash
# CI gate: formatting, lints, the full test suite, and a bench smoke run
# that exercises the grid executor and dumps the perf JSON artifact.
#
# Usage: scripts/ci.sh [--no-bench|--bench-scaling|--bench-scale100k]
#   --no-bench        skip the bench smoke step (fast pre-push check)
#   --bench-scaling   also run the heavy-cell worker-scaling bench and
#                     gate results/BENCH_4.json (slow; multi-core boxes)
#   --bench-scale100k also run the 100k-node topology bench and gate
#                     results/BENCH_6.json (slow; probe flatness, sampled
#                     placement quality, same-seed identity at 100k)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Every bench artifact states its schema version; a missing or mismatched
# number means a stale baseline is about to be gated against fresh code —
# fail loudly instead of comparing apples to last month's oranges.
check_schema() {
    grep -q "\"schema_version\": $2" "$1" \
        || { echo "==> $1 missing schema_version $2 (stale or truncated artifact)"; exit 1; }
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets --offline -- -D warnings

# Blocking lint stage: the workspace build enforces [workspace.lints]
# (unsafe_code = forbid, unused_must_use = deny, ...), then detlint
# enforces the determinism contract (see DESIGN.md) and writes the
# machine-readable report to results/detlint.json. --strict promotes
# warn-severity rules to failures: the tree must be fully clean.
run cargo build --workspace --offline
run cargo run --offline -p detlint -- --strict
test -s results/detlint.json
check_schema results/detlint.json 2

run cargo test --workspace --offline -q

# The benchmark package's behaviour-preservation tests: its pass-through
# wrappers must not change what the campaigns, the crash explorer and
# the scale clients compute. The package has its own workspace and lock
# file, so it builds into its own target directory.
run env CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
    --manifest-path benchmark/Cargo.toml

# The crash-consistency oracle must hold with debug_assertions compiled
# out: rerun the release-profile regression tests that seed counter
# drift and ownership divergence and expect the runtime auditor to
# catch both (plus the audit-flag default/toggle contract).
run cargo test --release --offline -p simdfs -q -- release_oracle runtime_audit

if [[ "${1:-}" != "--no-bench" ]]; then
    # Capture the committed baseline throughput BEFORE the bench run
    # overwrites the artifact: the regression gate compares the fresh
    # number against it.
    baseline=$(grep -o '"cached_iters_per_sec": *[0-9.]*' results/BENCH_1.json 2>/dev/null \
        | grep -o '[0-9.]*$' || true)

    # Bench smoke: the repro binary's perf mode times the cached-vs-baseline
    # campaign hot path plus grid scaling and writes results/BENCH_1.json,
    # then the snapshot-fork engine against full replay and the redeploy
    # fallback into results/BENCH_2.json.
    run cargo run --release --offline -p bench --bin repro -- perf
    test -s results/BENCH_1.json
    check_schema results/BENCH_1.json 1
    echo "==> results/BENCH_1.json:"
    cat results/BENCH_1.json
    test -s results/BENCH_2.json
    check_schema results/BENCH_2.json 2
    echo "==> results/BENCH_2.json:"
    cat results/BENCH_2.json

    # Perf regression gate: fail if campaign throughput fell more than 30%
    # below the committed baseline (shared CI boxes are noisy; a >30% drop
    # is a real regression, not scheduling jitter).
    fresh=$(grep -o '"cached_iters_per_sec": *[0-9.]*' results/BENCH_1.json \
        | grep -o '[0-9.]*$')
    if [[ -n "$baseline" ]]; then
        awk -v f="$fresh" -v b="$baseline" 'BEGIN {
            if (f < 0.7 * b) {
                printf "==> PERF REGRESSION: %.0f iters/s vs committed baseline %.0f (-%.0f%%)\n",
                    f, b, (1 - f / b) * 100
                exit 1
            }
            printf "==> perf gate OK: %.0f iters/s vs committed baseline %.0f\n", f, b
        }'
    else
        echo "==> perf gate skipped: no committed baseline in results/BENCH_1.json"
    fi

    # Fault-matrix smoke: every fault profile through the detector on all
    # four flavors, written to results/faults.txt.
    run cargo run --release --offline -p bench --bin repro -- faults
    test -s results/faults.txt
    echo "==> results/faults.txt:"
    cat results/faults.txt

    # Scaling artifact: per-op variance-sampling cost from 10 to 10k
    # storage nodes, heavy-traffic campaigns at scale with the mean-field
    # cross-check, the same-seed 10k-node determinism check, and worker
    # scaling over large-topology cells, into results/BENCH_3.json.
    run cargo run --release --offline -p bench --bin repro -- scale
    test -s results/BENCH_3.json
    check_schema results/BENCH_3.json 3
    echo "==> results/BENCH_3.json:"
    cat results/BENCH_3.json

    # Scaling regression gate: the streaming accumulators must keep the
    # per-operation variance probe O(1) — its cost at 10k nodes may not
    # exceed twice its cost at 10 nodes. A regression here means some
    # mutation path went back to full recomputation.
    ratio=$(grep -o '"variance_probe_cost_ratio": *[0-9.]*' results/BENCH_3.json \
        | grep -o '[0-9.]*$')
    awk -v r="$ratio" 'BEGIN {
        if (r == "" || r > 2.0) {
            printf "==> VARIANCE SCALING REGRESSION: 10k/10 probe cost ratio %s > 2.0\n", r
            exit 1
        }
        printf "==> variance scaling gate OK: 10k/10 probe cost ratio %s\n", r
    }'

    # The 10k-node campaign must be deterministic and pass both the state
    # audit and the mean-field cross-check.
    grep -q '"identical": true' results/BENCH_3.json \
        || { echo "==> 10k-node campaign is not deterministic"; exit 1; }
    if grep -q 'false' <<<"$(grep -o '"audit_ok": [a-z]*' results/BENCH_3.json)"; then
        echo "==> heavy campaign failed the state audit"; exit 1
    fi
    if grep -q 'false' <<<"$(grep -o '"mean_field_ok": [a-z]*' results/BENCH_3.json)"; then
        echo "==> heavy campaign drifted from the mean-field model"; exit 1
    fi

    # Crash-exploration smoke: bounded crash-point exploration of the
    # migration pipeline on every flavor (one bounded window each) plus
    # the equal-budget random-time baseline, into results/BENCH_5.json.
    run cargo run --release --offline -p bench --bin repro -- crash
    test -s results/BENCH_5.json
    check_schema results/BENCH_5.json 5
    echo "==> results/BENCH_5.json:"
    cat results/BENCH_5.json

    # Every seeded crash-window bug class must show up as a bounded-arm
    # finding (lost_linkfile is GlusterFS-only — the other flavors have
    # no linkfile layer), every flavor must find its full expected set,
    # two same-seed passes must render byte-identical canonical reports,
    # and the equal-budget random baseline must miss at least one class
    # somewhere — otherwise bounded exploration demonstrates no advantage.
    for class in lost_linkfile orphan_replica double_counted_blocks; do
        grep -q "\"$class\": [0-9]" results/BENCH_5.json \
            || { echo "==> crash exploration found no $class violations"; exit 1; }
    done
    grep -q '^  "all_classes_found": true' results/BENCH_5.json \
        || { echo "==> a flavor's bounded arm missed an expected crash class"; exit 1; }
    grep -q '^  "identical": true' results/BENCH_5.json \
        || { echo "==> crash campaign is not same-seed byte-identical"; exit 1; }
    grep -q '^  "baseline_misses_at_least_one": true' results/BENCH_5.json \
        || { echo "==> random baseline found every class; bounded exploration shows no advantage"; exit 1; }
    echo "==> crash exploration gate OK"
fi

if [[ "${1:-}" == "--bench-scaling" ]]; then
    # Worker-scaling artifact: the heavy-cell grid through the
    # work-stealing executor at 1/2/4/8 workers with per-worker
    # {cells_run, cells_stolen, busy_ns} counters, the reuse redeploy
    # count, and fresh-deploy identity at every worker count, into
    # results/BENCH_4.json.
    run cargo run --release --offline -p bench --bin repro -- scaling
    test -s results/BENCH_4.json
    check_schema results/BENCH_4.json 4
    echo "==> results/BENCH_4.json:"
    cat results/BENCH_4.json

    # Determinism is non-negotiable at any core count: every parallel
    # run's cells must be byte-identical to the serial fresh-deploy
    # reference, even when the speedup gate itself is skipped.
    grep -q '"identical_to_serial": true' results/BENCH_4.json \
        || { echo "==> parallel grid diverged from the serial reference"; exit 1; }

    # Speedup gate: every measured worker count w with 1 < w <= the
    # host's available parallelism must hit >= 0.7x-per-worker speedup
    # (>= 1.4x @ 2 workers, >= 2.8x @ 4). The bench computes the verdict
    # itself; single-core hosts record the gate as skipped instead. Skip
    # and pass stay distinguishable: a skip must carry its reason in the
    # artifact AND be consistent with the host topology the artifact
    # itself recorded — a degraded multi-core run cannot masquerade as a
    # single-core skip.
    if grep -q '"skipped": "single-core"' results/BENCH_4.json; then
        ap=$(grep -o '"available_parallelism": *[0-9]*' results/BENCH_4.json \
            | head -n1 | grep -o '[0-9]*$')
        if [[ "${ap:-1}" -gt 1 ]]; then
            echo "==> INCONSISTENT SKIP: gate claims a single-core skip but the artifact records available_parallelism=$ap"
            exit 1
        fi
        echo "==> scaling gate SKIPPED (not passed): single-core host, reason recorded in BENCH_4.json"
    elif grep -q '"passed": true' results/BENCH_4.json \
        && grep -q '"skipped": null' results/BENCH_4.json; then
        echo "==> scaling gate OK: >= 0.7x-per-worker speedup"
    else
        echo "==> SCALING REGRESSION:"
        grep -o '"why": "[^"]*"' results/BENCH_4.json || true
        exit 1
    fi
fi

if [[ "${1:-}" == "--bench-scale100k" ]]; then
    # 100k-node topology artifact: variance-probe flatness at 10/10k/100k
    # nodes (with per-point bulk-load preload wall time), sampled-vs-full
    # placement-quality differentials, serial-vs-batched request-loop
    # amortization, and a batched 100k-node campaign run twice for a
    # same-seed byte-identity check, into results/BENCH_6.json.
    run cargo run --release --offline -p bench --bin repro -- scale100k
    test -s results/BENCH_6.json
    check_schema results/BENCH_6.json 6
    echo "==> results/BENCH_6.json:"
    cat results/BENCH_6.json

    # Probe flatness gate: the last order of magnitude must be free —
    # the per-op variance probe at 100k nodes may not cost more than
    # twice what it costs at 10k. A regression here means some mutation
    # path reintroduced an O(V) walk into the probe.
    ratio=$(grep -o '"probe_cost_ratio_10k_100k": *[0-9.]*' results/BENCH_6.json \
        | grep -o '[0-9.]*$')
    awk -v r="$ratio" 'BEGIN {
        if (r == "" || r > 2.0) {
            printf "==> PROBE SCALING REGRESSION: 100k/10k probe cost ratio %s > 2.0\n", r
            exit 1
        }
        printf "==> probe scaling gate OK: 100k/10k probe cost ratio %s\n", r
    }'

    # Sampled-placement quality gate: every differential pair must satisfy
    # the documented bound sampled_cv <= 2 * full_cv + 0.05.
    grep -q '"within_bound": true' results/BENCH_6.json \
        || { echo "==> no sampled-vs-full differential recorded"; exit 1; }
    if grep -q '"within_bound": false' results/BENCH_6.json; then
        echo "==> sampled placement exceeded the documented variance bound"; exit 1
    fi
    echo "==> sampled placement gate OK: all pairs within 2*full_cv + 0.05"

    # The batched 100k-node campaign must be same-seed byte-identical and
    # pass the full state audit.
    grep -q '"identical": true' results/BENCH_6.json \
        || { echo "==> 100k-node batched campaign is not deterministic"; exit 1; }
    if grep -q 'false' <<<"$(grep -o '"audit_ok": [a-z]*' results/BENCH_6.json)"; then
        echo "==> 100k-node batched campaign failed the state audit"; exit 1
    fi
    echo "==> scale100k gate OK"
fi

echo "CI OK"
