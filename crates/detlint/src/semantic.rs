//! Semantic rule packs: contract proofs over the syntax model.
//!
//! The lexical rules catch *forbidden constructs*; these packs prove
//! *required structure* — the three runtime contracts the reproduction's
//! replay guarantees rest on, checked at lint time instead of waiting for
//! the state auditor or a proptest to trip at runtime:
//!
//! * **journal-coverage** — every write to journaled state (`Cluster`'s
//!   node/volume/file tables, `Namespace`, `UtilTracker`) happens inside
//!   the owning impl, whose journaling accessors and wholesale-checkpoint
//!   machinery cover it. A write from anywhere else bypasses the
//!   fork/restore undo log and silently corrupts snapshot replay.
//! * **tracker-completeness** — every `Cluster` mutation that can move a
//!   node's utilization or eligibility routes through the `UtilTracker`
//!   maintenance hooks (`touch_volume` / `refresh_node_stats` /
//!   `end_bulk_load`), directly or through the intra-crate call graph.
//!   This is the drift class the runtime auditor finds only when it
//!   fires; here it is refused at lint time.
//! * **crash-decomposition** — a `DfsSim` fn that performs two or more
//!   cluster/namespace mutations across an RPC/clock boundary is a
//!   multi-step crash window. It must decompose into registered crash
//!   points (reach `crash_point` on the call graph) or carry a reasoned
//!   pragma stating the atomic-window assumption (ROADMAP item 7 tracks
//!   the create/delete/heal remainder).
//!
//! Every pack reports through the same diagnostics/pragma/JSON machinery
//! as the lexical rules; `detlint:allow(<pack>)` with a mandatory reason
//! is the escape hatch, and unused allows are themselves flagged.

use crate::rules::Severity;
use crate::syntax::{BodyFacts, Chain, CrateModel};
use std::collections::BTreeSet;

/// A semantic finding before pragma filtering (the driver resolves
/// suppressions, excerpts and report plumbing).
#[derive(Debug, Clone)]
pub struct SemFinding {
    pub rule: &'static str,
    pub severity: Severity,
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// Registration record for a semantic pack (referenced by pragma hygiene
/// and `--list-rules`; patterns live in code, not tables).
#[derive(Debug)]
pub struct SemRule {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// The semantic rule packs, in reporting order.
pub const SEM_RULES: &[SemRule] = &[
    SemRule {
        id: "journal-coverage",
        severity: Severity::Deny,
        summary: "writes to journaled state (Cluster/Namespace tables, UtilTracker) \
                  must stay inside the owning impl's journaled accessors",
    },
    SemRule {
        id: "tracker-completeness",
        severity: Severity::Deny,
        summary: "Cluster mutations of used/capacity/online/volume membership must \
                  reach a UtilTracker maintenance hook on the call graph",
    },
    SemRule {
        id: "crash-decomposition",
        severity: Severity::Deny,
        summary: "multi-mutation DfsSim fns crossing an RPC/clock boundary must \
                  register crash-point micro-steps or document the atomic window",
    },
];

/// Looks up a semantic pack by id.
pub fn find(id: &str) -> Option<&'static SemRule> {
    SEM_RULES.iter().find(|r| r.id == id)
}

/// Runs every pack over one crate model, appending findings. Findings are
/// deduplicated per `(rule, file, line)`: one statement can produce
/// several offending chains (a `get_mut` link and the final field write),
/// but it is one defect at one location.
pub fn run_packs(cm: &CrateModel, out: &mut Vec<SemFinding>) {
    let mut found = Vec::new();
    journal_coverage(cm, &mut found);
    tracker_completeness(cm, &mut found);
    crash_decomposition(cm, &mut found);
    found.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    found.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    out.append(&mut found);
}

/// Path scope shared by the state-contract packs (mirrors the lexical
/// `STATE_PATHS_AND_BENCH` scope: everything that can reach simulated
/// state, including examples and integration tests).
fn in_state_scope(path: &str) -> bool {
    const SCOPES: &[&str] = &[
        "crates/simdfs",
        "crates/themis",
        "crates/adaptors",
        "crates/workload",
        "crates/bench",
        "src",
        "tests",
        "examples",
    ];
    SCOPES
        .iter()
        .any(|p| path == *p || (path.starts_with(p) && path.as_bytes().get(p.len()) == Some(&b'/')))
}

/// Structs owning journaled state: writes through their fields are only
/// legal inside these impls (journaling accessors + wholesale-checkpoint
/// machinery live there; `tracker-completeness` polices `Cluster` from
/// the inside).
const OWNING_IMPLS: &[&str] = &[
    "Cluster",
    "Namespace",
    "NodeArena",
    "UtilTracker",
    "VolumeDirectory",
];

/// Journaled-state fields: a mutation chain traversing one of these
/// (`…storage.get_mut(…)…`, `…util_stats.update(…)`) is a journaled-state
/// write. Field names are cross-checked against the symbol table when the
/// owning struct is in the scanned crate, so a rename breaks the lint
/// loudly instead of silently un-scoping it.
const JOURNALED_FIELDS: &[(&str, &str)] = &[
    ("Cluster", "storage"),
    ("Cluster", "mgmt"),
    ("Cluster", "files"),
    ("Cluster", "volume_owner"),
    ("Cluster", "util_stats"),
    ("Cluster", "views_cache"),
    ("Cluster", "view_index"),
];

/// Whether a chain mutates through a journaled field: the field appears
/// as a non-final segment (something is written or mutably accessed
/// deeper than it) *with a receiver in front of it* — a bare
/// `storage.push(…)` is a local variable, not `Cluster` state.
fn chain_hits_journaled(chain: &Chain) -> bool {
    chain.segs.iter().enumerate().any(|(i, s)| {
        i >= 1 && i + 1 < chain.segs.len() && JOURNALED_FIELDS.iter().any(|(_, f)| f == s)
    })
}

/// Whether a file/chain is plausibly about `Cluster` state at all: the
/// field names above are generic (`files`, `storage`), so outside the
/// crate that defines `Cluster` the chain must go through a `cluster`
/// receiver — `model.files` in the themis harness or an example's own
/// `files` map is that struct's business, not journaled sim state.
fn in_cluster_context(path: &str, chain: &Chain) -> bool {
    path.starts_with("crates/simdfs/") || chain.segs.iter().any(|s| s == "cluster")
}

fn journal_coverage(cm: &CrateModel, out: &mut Vec<SemFinding>) {
    // Symbol-table cross-check: if the crate defines one of the owning
    // structs, every configured field must still exist — a silent rename
    // would otherwise un-scope the rule.
    for owner in ["Cluster"] {
        if let Some(st) = cm.find_struct(owner) {
            for (o, f) in JOURNALED_FIELDS {
                if o == &owner && !st.fields.iter().any(|x| x == f) {
                    out.push(SemFinding {
                        rule: "journal-coverage",
                        severity: Severity::Deny,
                        file: cm
                            .files
                            .iter()
                            .find(|fm| fm.structs.iter().any(|s| s.name == owner))
                            .map(|fm| fm.path.clone())
                            .unwrap_or_default(),
                        line: st.line as usize,
                        message: format!(
                            "journal-coverage config names `{owner}::{f}` but the struct \
                             no longer has that field; update JOURNALED_FIELDS so the \
                             contract keeps covering the renamed state"
                        ),
                    });
                }
            }
        }
    }
    for fm in &cm.files {
        if !in_state_scope(&fm.path) {
            continue;
        }
        for f in &fm.fns {
            if f.impl_type
                .as_deref()
                .is_some_and(|t| OWNING_IMPLS.contains(&t))
                && !f.in_test
            {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let facts = BodyFacts::extract(fm, open, close);
            for ch in &facts.chains {
                if chain_hits_journaled(ch) && in_cluster_context(&fm.path, ch) {
                    out.push(SemFinding {
                        rule: "journal-coverage",
                        severity: Severity::Deny,
                        file: fm.path.clone(),
                        line: ch.line as usize,
                        message: format!(
                            "`{}` writes journaled state (`{}`) outside its owning impl: \
                             the mutation bypasses the fork/restore undo journal — route \
                             it through the journaled accessors, or pragma-document \
                             deliberate corruption (auditor tests)",
                            f.name,
                            ch.segs.join(".")
                        ),
                    });
                }
            }
        }
    }
}

/// UtilTracker maintenance hooks: reaching one of these on the call graph
/// proves the streaming stats follow the mutation.
const TRACKER_HOOKS: &[&str] = &["touch_volume", "refresh_node_stats", "end_bulk_load"];

/// Speculative-view infrastructure: these write only the cached planning
/// views (rolled back exactly by the planner), never tracked state.
const VIEW_INFRA: &[&str] = &["bump_view_used", "set_view_used", "sync_view_used"];

/// Whether a chain mutates tracker-relevant state: node fill, capacity,
/// eligibility, or volume/node membership. Field writes need a receiver
/// (`v.used = …`); a bare `online += 1` is a local counter.
fn chain_hits_tracked(chain: &Chain) -> bool {
    let field_write = |f: &str| chain.segs.len() >= 2 && chain.writes_field(f);
    field_write("used")
        || field_write("capacity")
        || field_write("online")
        || [
            "push",
            "remove",
            "retain",
            "clear",
            "swap_remove",
            "truncate",
            "pop",
        ]
        .iter()
        .any(|m| chain.has_pair("volumes", m))
        || chain.has_pair("storage", "insert")
        || chain.has_pair("storage", "remove")
}

fn tracker_completeness(cm: &CrateModel, out: &mut Vec<SemFinding>) {
    let hooks: BTreeSet<&str> = TRACKER_HOOKS.iter().copied().collect();
    for fm in &cm.files {
        if !fm.path.starts_with("crates/simdfs/src/") {
            continue;
        }
        for f in &fm.fns {
            if f.impl_type.as_deref() != Some("Cluster") || f.in_test {
                continue;
            }
            if TRACKER_HOOKS.contains(&f.name.as_str()) || VIEW_INFRA.contains(&f.name.as_str()) {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let facts = BodyFacts::extract(fm, open, close);
            let hit = facts.chains.iter().find(|ch| chain_hits_tracked(ch));
            let Some(ch) = hit else { continue };
            // Direct tracker maintenance (`self.util_stats.update(…)`) is
            // as good as a hook; so is reaching one transitively.
            let touches_tracker = facts
                .calls
                .iter()
                .chain(facts.chains.iter())
                .any(|c| c.segs.iter().any(|s| s == "util_stats"));
            if touches_tracker || cm.reaches(Some("Cluster"), &f.name, &hooks, 3) {
                continue;
            }
            out.push(SemFinding {
                rule: "tracker-completeness",
                severity: Severity::Deny,
                file: fm.path.clone(),
                line: ch.line as usize,
                message: format!(
                    "`Cluster::{}` mutates tracked state (`{} {}`) but reaches no \
                     UtilTracker hook (touch_volume / refresh_node_stats / \
                     end_bulk_load): the streaming variance drifts until the runtime \
                     auditor fires — call a hook, or pragma-document why a caller \
                     compensates",
                    f.name,
                    ch.segs.join("."),
                    ch.op
                ),
            });
        }
    }
}

/// Cluster mutations that move bytes, topology or liveness (counted as
/// crash-window steps when performed on `self.cluster`).
const CLUSTER_MUTS: &[&str] = &[
    "store",
    "free_file",
    "migrate",
    "migrate_copy",
    "migrate_rollback_copy",
    "migrate_commit_swap",
    "migrate_commit_account",
    "rescale_file",
    "add_storage",
    "remove_storage",
    "add_mgmt",
    "remove_mgmt",
    "add_volume",
    "remove_volume",
    "expand_volume",
    "reduce_volume",
    "set_offline",
    "set_online",
    "set_volumes_full",
    "file_mut",
];

/// Namespace mutations (performed on `self.ns`).
const NS_MUTS: &[&str] = &["create", "delete", "resize", "rename", "mkdir", "rmdir"];

/// Calls marking an RPC/clock boundary: virtual time moves or a
/// simulated machine round-trip is charged, so a crash can land between
/// the mutations on either side.
fn is_boundary(call: &Chain) -> bool {
    let last = call.segs.last().map(String::as_str).unwrap_or("");
    matches!(
        last,
        "advance"
            | "tick"
            | "charge_mgmt"
            | "charge_read"
            | "charge_storage_write"
            | "route_request"
            | "apply_due_faults"
    ) || call.has_pair("clock", "now")
        || call.has_pair("clock", "advance")
}

fn is_cluster_mutation(call: &Chain) -> bool {
    let last = call.segs.last().map(String::as_str).unwrap_or("");
    (CLUSTER_MUTS.contains(&last) && call.segs.iter().any(|s| s == "cluster"))
        || (NS_MUTS.contains(&last) && call.segs.iter().any(|s| s == "ns"))
}

/// Whether `path` is a file of the simulator's `sim` module (`sim.rs`, or
/// `sim/mod.rs` and its submodules), where the `DfsSim` impls live.
fn in_sim_module(path: &str) -> bool {
    path == "crates/simdfs/src/sim.rs" || path.starts_with("crates/simdfs/src/sim/")
}

fn crash_decomposition(cm: &CrateModel, out: &mut Vec<SemFinding>) {
    let crash_targets: BTreeSet<&str> = ["crash_point"].into_iter().collect();
    for fm in &cm.files {
        if !in_sim_module(&fm.path) {
            continue;
        }
        for f in &fm.fns {
            if f.impl_type.as_deref() != Some("DfsSim") || f.in_test {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let facts = BodyFacts::extract(fm, open, close);
            let muts = facts
                .calls
                .iter()
                .filter(|c| is_cluster_mutation(c))
                .count();
            if muts < 2 || !facts.calls.iter().any(is_boundary) {
                continue;
            }
            if cm.reaches(Some("DfsSim"), &f.name, &crash_targets, 3) {
                continue;
            }
            out.push(SemFinding {
                rule: "crash-decomposition",
                severity: Severity::Deny,
                file: fm.path.clone(),
                line: f.line as usize,
                message: format!(
                    "`DfsSim::{}` performs {muts} cluster/namespace mutations across an \
                     RPC/clock boundary with no registered crash points: a crash between \
                     them is unexplorable — decompose into crash_point micro-steps or \
                     pragma-document the atomic-window assumption (ROADMAP item 7)",
                    f.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;
    use crate::syntax::parse_file;

    fn crate_of(files: &[(&str, &str)]) -> CrateModel {
        CrateModel {
            root: "fixture".to_string(),
            files: files
                .iter()
                .map(|(p, s)| parse_file(p, &strip(s).masked))
                .collect(),
        }
    }

    fn findings(files: &[(&str, &str)]) -> Vec<SemFinding> {
        let cm = crate_of(files);
        let mut out = Vec::new();
        run_packs(&cm, &mut out);
        out
    }

    #[test]
    fn journal_coverage_flags_outside_writes_and_allows_owner() {
        let bad = findings(&[(
            "crates/simdfs/src/sim.rs",
            "impl DfsSim { fn corrupt(&mut self) {\n\
                self.cluster.storage.get_mut(&id).unwrap().volumes[0].used += 1;\n\
             } }",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "journal-coverage");
        assert_eq!(bad[0].line, 2);

        let ok = findings(&[(
            "crates/simdfs/src/cluster.rs",
            "impl Cluster { fn refresh_node_stats(&mut self, id: NodeId) {\n\
                self.storage.get_mut(&id).unwrap().hot = 1;\n\
                self.util_stats.update(id, q);\n\
             } }",
        )]);
        assert!(
            ok.iter().all(|f| f.rule != "journal-coverage"),
            "owner impl writes are covered: {ok:?}"
        );
    }

    #[test]
    fn journal_coverage_flags_test_fns_even_in_owner_file() {
        let out = findings(&[(
            "crates/simdfs/src/cluster.rs",
            "#[cfg(test)] mod tests { fn corrupt(c: &mut Cluster) {\n\
                c.storage.get_mut(&o).unwrap().volumes[0].used += 1;\n\
             } }",
        )]);
        assert_eq!(
            out.iter().filter(|f| f.rule == "journal-coverage").count(),
            1
        );
    }

    #[test]
    fn journal_coverage_cross_checks_field_names() {
        let out = findings(&[(
            "crates/simdfs/src/cluster.rs",
            "pub struct Cluster { storage: NodeArena, mgmt: B, files: B, \
             volume_owner: V, util_stats: U, views_cache: Vec<V>, renamed: Vec<u32> }",
        )]);
        // `view_index` is configured but missing from the struct.
        assert!(
            out.iter()
                .any(|f| f.rule == "journal-coverage" && f.message.contains("view_index")),
            "{out:?}"
        );
    }

    #[test]
    fn journal_coverage_ignores_other_structs_and_locals() {
        let out = findings(&[
            // A themis-side struct with its own `files` field.
            (
                "crates/themis/src/model.rs",
                "impl ModelState { fn apply(&mut self) { self.files.push(p.clone()); } }",
            ),
            // Local accumulators that happen to shadow field names.
            (
                "crates/adaptors/src/sim_adaptor.rs",
                "fn inventory() { let mut mgmt = Vec::new(); mgmt.push(1u64); \
                 let mut storage = Vec::new(); storage.push(2u64); }",
            ),
        ]);
        assert!(out.iter().all(|f| f.rule != "journal-coverage"), "{out:?}");
    }

    #[test]
    fn tracker_completeness_ignores_locals_and_accepts_direct_maintenance() {
        let ok = findings(&[(
            "crates/simdfs/src/cluster.rs",
            "impl Cluster {\n\
               fn count(&self) -> usize { let mut online = 0usize; online += 1; online }\n\
               fn drop_node(&mut self, id: NodeId) {\n\
                 let node = self.storage.remove(&id).expect(\"checked\");\n\
                 self.util_stats.update(id, None);\n\
               }\n\
             }",
        )]);
        assert!(
            ok.iter().all(|f| f.rule != "tracker-completeness"),
            "{ok:?}"
        );
    }

    #[test]
    fn tracker_completeness_requires_a_hook_on_the_call_graph() {
        let src_bad = "impl Cluster {\n\
            fn strip(&mut self) { let v = self.volume_mut(x); v.used = 0; }\n\
         }";
        let bad = findings(&[("crates/simdfs/src/cluster.rs", src_bad)]);
        assert_eq!(
            bad.iter()
                .filter(|f| f.rule == "tracker-completeness")
                .count(),
            1,
            "{bad:?}"
        );

        let src_ok = "impl Cluster {\n\
            fn store(&mut self) { let v = self.volume_mut(x); v.used += b; self.up(v); }\n\
            fn up(&mut self, v: V) { self.touch_volume(v); }\n\
            fn touch_volume(&mut self, v: V) {}\n\
         }";
        let ok = findings(&[("crates/simdfs/src/cluster.rs", src_ok)]);
        assert!(
            ok.iter().all(|f| f.rule != "tracker-completeness"),
            "transitive hook satisfies the contract: {ok:?}"
        );
    }

    #[test]
    fn crash_decomposition_flags_unregistered_multi_step_windows() {
        let bad = findings(&[(
            "crates/simdfs/src/sim.rs",
            "impl DfsSim { fn do_create(&mut self) {\n\
                let fid = self.ns.create(path, size);\n\
                self.charge_mgmt(m, req);\n\
                self.cluster.store(fid, frags);\n\
             } }",
        )]);
        assert_eq!(
            bad.iter()
                .filter(|f| f.rule == "crash-decomposition")
                .count(),
            1,
            "{bad:?}"
        );

        // Reaching crash_point (even transitively) registers the window.
        let ok = findings(&[(
            "crates/simdfs/src/sim.rs",
            "impl DfsSim {\n\
               fn mv(&mut self) {\n\
                 self.cluster.migrate_copy(to, b); self.clock.advance(1);\n\
                 self.cluster.migrate_commit_swap(f, t); self.steps();\n\
               }\n\
               fn steps(&mut self) { self.crash_point(m, s); }\n\
               fn crash_point(&mut self, m: M, s: S) {}\n\
             }",
        )]);
        assert!(ok.iter().all(|f| f.rule != "crash-decomposition"), "{ok:?}");

        // One mutation, or no boundary, is not a window.
        let single = findings(&[(
            "crates/simdfs/src/sim.rs",
            "impl DfsSim { fn one(&mut self) {\n\
                self.cluster.free_file(fid); self.clock.advance(1);\n\
             }\n\
             fn pure(&mut self) { self.cluster.store(a, b); self.cluster.free_file(c); }\n\
             }",
        )]);
        assert!(
            single.iter().all(|f| f.rule != "crash-decomposition"),
            "{single:?}"
        );
    }
}
