//! Integration gates for `detlint` itself.
//!
//! 1. The live workspace must be lint-clean (zero violations, even under
//!    `--strict` semantics) — this is the same contract `scripts/ci.sh`
//!    enforces, pinned here so `cargo test` alone catches regressions.
//! 2. A fixture tree seeded with one violation per rule must produce
//!    exactly those violations and a failing exit decision, proving every
//!    rule actually fires outside its unit tests.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/detlint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn live_workspace_has_zero_violations() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let outcome = detlint::lint_root(&root).expect("scan failed");
    assert!(
        outcome.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker broken?",
        outcome.files_scanned
    );
    assert!(
        outcome.violations.is_empty(),
        "workspace must be detlint-clean; found:\n{}",
        outcome.render_text()
    );
    assert!(!outcome.should_fail(true));
    // Suppressions are part of the contract: each one carries a reason.
    for s in &outcome.suppressions {
        assert!(!s.reason.is_empty(), "suppression without reason: {s:?}");
    }
}

/// Writes `files` under a fresh fixture root and returns its path.
fn write_fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("detlint-fixture-{}-{}", std::process::id(), name));
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    for (rel, contents) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }
    root
}

#[test]
fn fixture_tree_with_one_seeded_violation_per_rule_fails() {
    let fixture = write_fixture(
        "all-rules",
        &[
            (
                "crates/simdfs/src/sim.rs",
                "use std::collections::HashMap;\n\
                 fn clock() { let t = std::time::Instant::now(); let _ = t; }\n\
                 fn env() { let _ = std::env::var(\"SEED\"); }\n",
            ),
            (
                "crates/themis/src/lvm.rs",
                "fn score(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n\
                 fn pick(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
            ),
            (
                "crates/workload/src/lib.rs",
                "fn rng() { let r = rand::thread_rng(); let _ = r; }\n\
                 fn raw(p: *mut u8) { unsafe { *p = 0 } }\n\
                 // detlint:allow(ambient-rng)\n\
                 fn rng2() { let r = rand::thread_rng(); let _ = r; }\n",
            ),
        ],
    );

    let outcome = detlint::lint_root(&fixture).expect("fixture scan failed");
    let hit: BTreeSet<&str> = outcome.violations.iter().map(|v| v.rule.as_str()).collect();
    let expected: BTreeSet<&str> = [
        "nondet-iteration",
        "wall-clock",
        "env-read",
        "float-accum",
        "float-order",
        "ambient-rng",
        "unsafe-code",
        "pragma-hygiene",
    ]
    .into_iter()
    .collect();
    assert_eq!(
        hit,
        expected,
        "every rule must fire exactly on its seeded violation:\n{}",
        outcome.render_text()
    );
    // The reason-less pragma must not have suppressed anything.
    assert!(outcome.suppressions.is_empty());
    assert!(
        outcome.should_fail(false),
        "deny violations must fail the run"
    );

    fs::remove_dir_all(&fixture).unwrap();
}

#[test]
fn fixture_tree_with_one_seeded_violation_per_semantic_pack_fails() {
    // End-to-end over `lint_root`: each semantic pack must fire on its
    // seeded contract breach, through the same crate-grouping, pragma and
    // JSON machinery the real scan uses.
    let fixture = write_fixture(
        "sem-rules",
        &[
            // journal-coverage: a helper outside the owning impls writes
            // through Cluster's journaled `storage` table.
            (
                "crates/simdfs/src/poke.rs",
                "pub fn corrupt(c: &mut Cluster, id: NodeId) {\n\
                     c.storage.get_mut(&id).unwrap().hot += 1;\n\
                 }\n",
            ),
            // tracker-completeness: a Cluster method moves fill without
            // reaching any UtilTracker hook.
            (
                "crates/simdfs/src/cluster.rs",
                "impl Cluster {\n\
                     pub fn shrink(&mut self, id: NodeId) {\n\
                         let v = self.volume_mut(id);\n\
                         v.used = 0;\n\
                     }\n\
                 }\n",
            ),
            // crash-decomposition: two mutations straddle a charged RPC
            // with no crash_point registration.
            (
                "crates/simdfs/src/sim.rs",
                "impl DfsSim {\n\
                     fn do_wipe(&mut self, p: &str) {\n\
                         let fid = self.ns.delete(p);\n\
                         self.charge_mgmt(m, req);\n\
                         self.cluster.free_file(fid);\n\
                     }\n\
                 }\n",
            ),
            // A pragma-documented breach must be suppressed (and counted),
            // proving the escape hatch works for semantic packs too.
            (
                "crates/simdfs/src/audit.rs",
                "pub fn wreck(c: &mut Cluster, id: NodeId) {\n\
                     // detlint:allow(journal-coverage): deliberate corruption probe\n\
                     c.mgmt.get_mut(&id).unwrap().hot += 1;\n\
                 }\n",
            ),
        ],
    );

    let outcome = detlint::lint_root(&fixture).expect("fixture scan failed");
    let hit: Vec<(&str, &str)> = outcome
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.file.as_str()))
        .collect();
    let expected = [
        ("tracker-completeness", "crates/simdfs/src/cluster.rs"),
        ("journal-coverage", "crates/simdfs/src/poke.rs"),
        ("crash-decomposition", "crates/simdfs/src/sim.rs"),
    ];
    assert_eq!(
        hit,
        expected,
        "each semantic pack must fire exactly on its seed:\n{}",
        outcome.render_text()
    );
    assert!(outcome.should_fail(false), "semantic packs are deny-level");
    // The reasoned pragma suppressed the audit probe — and is not itself
    // flagged as unused.
    assert_eq!(outcome.suppressions.len(), 1);
    assert_eq!(outcome.suppressions[0].rule, "journal-coverage");
    assert!(outcome
        .violations
        .iter()
        .all(|v| v.rule != "unused-pragma" && v.rule != "pragma-hygiene"));
    // The report schema carries the v2 stamp CI asserts on.
    assert!(outcome
        .to_json()
        .contains(&format!("\"schema_version\": {}", detlint::SCHEMA_VERSION)));

    fs::remove_dir_all(&fixture).unwrap();
}

#[test]
fn crash_decomposition_scans_every_file_of_the_sim_module() {
    // The `DfsSim` impls are split across `sim/mod.rs` and its
    // submodules: a multi-step window in `sim/rewind.rs` must be flagged,
    // and a reasoned allow in `sim/mod.rs` must suppress, not go stale.
    let fixture = write_fixture(
        "sim-module",
        &[
            (
                "crates/simdfs/src/sim/rewind.rs",
                "impl DfsSim {\n\
                     fn do_wipe(&mut self, p: &str) {\n\
                         let fid = self.ns.delete(p);\n\
                         self.charge_mgmt(m, req);\n\
                         self.cluster.free_file(fid);\n\
                     }\n\
                 }\n",
            ),
            (
                "crates/simdfs/src/sim/mod.rs",
                "impl DfsSim {\n\
                     // detlint:allow(crash-decomposition): one atomic window by design\n\
                     fn do_move(&mut self, f: FileId) {\n\
                         self.cluster.free_file(f);\n\
                         self.clock.advance(1);\n\
                         self.cluster.store(f, v, b);\n\
                     }\n\
                 }\n",
            ),
        ],
    );
    let outcome = detlint::lint_root(&fixture).expect("fixture scan failed");
    let hit: Vec<(&str, &str)> = outcome
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.file.as_str()))
        .collect();
    assert_eq!(
        hit,
        [("crash-decomposition", "crates/simdfs/src/sim/rewind.rs")],
        "{}",
        outcome.render_text()
    );
    assert_eq!(outcome.suppressions.len(), 1);
    assert_eq!(outcome.suppressions[0].rule, "crash-decomposition");
    fs::remove_dir_all(&fixture).unwrap();
}

#[test]
fn fixture_with_stale_pragma_warns_and_fails_only_under_strict() {
    let fixture = write_fixture(
        "stale-pragma",
        &[(
            "crates/simdfs/src/lib.rs",
            "// detlint:allow(wall-clock): once needed, code since rewritten\n\
             pub fn now_free() -> u64 { 42 }\n",
        )],
    );
    let outcome = detlint::lint_root(&fixture).expect("fixture scan failed");
    assert_eq!(outcome.deny_count(), 0);
    assert_eq!(outcome.warn_count(), 1);
    assert_eq!(outcome.violations[0].rule, "unused-pragma");
    assert!(!outcome.should_fail(false));
    assert!(outcome.should_fail(true), "stale pragmas block strict runs");
    fs::remove_dir_all(&fixture).unwrap();
}

#[test]
fn fixture_with_only_warnings_fails_only_under_strict() {
    let fixture = write_fixture(
        "warn-only",
        &[(
            "crates/simdfs/src/balancer.rs",
            "fn mean(v: &[f64]) -> f64 { v.iter().sum::<f64>() / v.len() as f64 }\n",
        )],
    );
    let outcome = detlint::lint_root(&fixture).expect("fixture scan failed");
    assert_eq!(outcome.deny_count(), 0);
    assert_eq!(outcome.warn_count(), 1);
    assert!(!outcome.should_fail(false));
    assert!(outcome.should_fail(true));
    fs::remove_dir_all(&fixture).unwrap();
}

#[test]
fn json_report_for_fixture_is_well_formed() {
    let fixture = write_fixture(
        "json",
        &[(
            "crates/themis/src/gen.rs",
            "use std::collections::HashSet;\n",
        )],
    );
    let outcome = detlint::lint_root(&fixture).expect("fixture scan failed");
    let js = outcome.to_json();
    assert!(js.contains("\"tool\": \"detlint\""));
    assert!(js.contains("\"rule\": \"nondet-iteration\""));
    assert!(js.contains("\"file\": \"crates/themis/src/gen.rs\""));
    assert!(js.contains("\"deny\": 1"));
    // Balanced braces/brackets — cheap structural sanity without a parser.
    assert_eq!(js.matches('{').count(), js.matches('}').count());
    assert_eq!(js.matches('[').count(), js.matches(']').count());
    fs::remove_dir_all(&fixture).unwrap();
}
