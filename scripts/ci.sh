#!/usr/bin/env bash
# CI gate: formatting, lints, the full test suite, and a bench smoke run
# that exercises the grid executor and dumps the perf JSON artifact.
#
# Usage: scripts/ci.sh [--no-bench]
#   --no-bench        skip the bench smoke step (fast pre-push check)
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

# Public docs must build without warnings: a broken or private intra-doc
# link fails here instead of rotting silently.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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
# file, so it builds into its own target directory. --locked fails the
# step when a workspace dependency change would rewrite
# benchmark/Cargo.lock, instead of leaving the tree dirty.
run env CARGO_TARGET_DIR=.bench_build cargo test --release --offline --locked \
    --manifest-path benchmark/Cargo.toml

# The crash-consistency oracle must hold with debug_assertions compiled
# out: rerun the release-profile regression tests that seed counter
# drift, ownership divergence and a stale max-tree root and expect the
# runtime auditor to catch each (plus the audit-flag default/toggle
# contract). Release builds skip the automatic audit after rewinds, so
# the clone-reference test is the only check of journal rewinds without
# debug_assertions. The coverage bitset and the max tracker are checked
# against their ordered-set references here too, with overflow checks
# compiled out of the bit arithmetic and the u128 sums. Every balancer
# move runs the migration micro-steps, so their composition is checked
# against the atomic reference migrate with overflow checks off as well.
# The state audit is the crash explorer's release-mode oracle, so its
# dense recomputation is checked against the BTreeMap reference audit
# here too. The cached placer is the only placement path, for canonical
# and filtered view lists alike, so it is checked against the uncached
# reference placers here as well.
run cargo test --release --offline -p simdfs -q -- release_oracle runtime_audit clone_reference \
    coverage_matches_btreeset_reference tracker_equals_recomputation_after_random_walk \
    microsteps_match_atomic_migrate audit_matches_btreemap_reference \
    cached_placement_matches_uncached_reference filtered_plans_match_the_uncached_placer

if [[ "${1:-}" != "--no-bench" ]]; then
    # Capture the committed baseline throughput BEFORE the bench run
    # overwrites the artifact: the regression gate compares the fresh
    # number against it.
    baseline=$(grep -o '"iters_per_sec": *[0-9.]*' results/BENCH_1.json 2>/dev/null \
        | grep -o '[0-9.]*$' || true)

    # Bench smoke: the repro binary's perf mode times the campaign hot
    # path plus grid scaling and writes results/BENCH_1.json.
    run cargo run --release --offline -p bench --bin repro -- perf
    test -s results/BENCH_1.json
    check_schema results/BENCH_1.json 1
    echo "==> results/BENCH_1.json:"
    cat results/BENCH_1.json

    # Perf regression gate: fail if campaign throughput fell more than 30%
    # below the committed baseline (shared CI boxes are noisy; a >30% drop
    # is a real regression, not scheduling jitter).
    fresh=$(grep -o '"iters_per_sec": *[0-9.]*' results/BENCH_1.json \
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
    # cross-check, and the same-seed 10k-node determinism check, into
    # results/BENCH_3.json.
    run cargo run --release --offline -p bench --bin repro -- scale
    test -s results/BENCH_3.json
    check_schema results/BENCH_3.json 4
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
    check_schema results/BENCH_5.json 6
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

echo "CI OK"
