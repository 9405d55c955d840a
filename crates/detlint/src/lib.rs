//! detlint — a workspace determinism-and-safety linter.
//!
//! The Themis reproduction's headline guarantees (grid == serial identity,
//! snapshot restore == fresh deploy, same-seed replayability) are dynamic
//! properties enforced by differential tests. `detlint` is the static side
//! of that contract: it scans every `.rs` file in the workspace and fails
//! on constructs that are known to break replay — unordered hash-container
//! iteration in state paths, wall-clock reads outside the virtual clock,
//! ambient randomness, environment reads, unpinned float reductions, and
//! `unsafe` blocks outside the allowlist.
//!
//! The tool is deliberately self-contained (no parser crates — the build
//! environment is offline, see `crates/compat/`): a comment/string
//! stripping lexer ([`lexer`]) feeds two analysis layers sharing one
//! suppression/report pipeline:
//!
//! * path-scoped pattern rules ([`rules`]) over the masked text, and
//! * semantic rule packs ([`semantic`]) over a per-crate syntax model
//!   ([`syntax`]: item parser, symbol tables, intra-crate call graph)
//!   that prove the journal/tracker/crash-point contracts hold.
//!
//! Violations can be suppressed inline with
//! `// detlint:allow(<rule>): <reason>` (the reason is mandatory) or for a
//! whole file with `// detlint:allow-file(<rule>): <reason>`. Allows that
//! never suppress anything are themselves reported (`unused-pragma`,
//! warn — an error under `--strict`) so the audit trail cannot rot.
//!
//! Diagnostics are rustc-style `file:line:col`; a machine-readable JSON
//! report (schema_version [`SCHEMA_VERSION`]) is written under `results/`
//! by the CLI.

pub mod lexer;
pub mod rules;
pub mod semantic;
pub mod syntax;

use rules::{Severity, PRAGMA_RULE, RULES, UNUSED_PRAGMA_RULE};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Version stamped into the JSON report and asserted by `scripts/ci.sh`
/// (matching the `BENCH_*` writers): 2 = the semantic-analysis engine with
/// the contract packs and unused-pragma reporting.
pub const SCHEMA_VERSION: u32 = 2;

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier (one of [`RULES`] or [`PRAGMA_RULE`]).
    pub rule: String,
    pub severity: Severity,
    /// Repo-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column of the match.
    pub col: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Human explanation (the rule message, or the hygiene error).
    pub message: String,
}

/// One pragma-suppressed match (kept for the report: suppressions are part
/// of the audit trail, not silence).
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rule: String,
    pub file: String,
    /// Line of the suppressed match.
    pub line: usize,
    pub reason: String,
}

/// Aggregated result of linting a file set.
#[derive(Debug, Default)]
pub struct LintOutcome {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    pub suppressions: Vec<Suppression>,
}

impl LintOutcome {
    /// Number of deny-severity violations.
    pub fn deny_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-severity violations.
    pub fn warn_count(&self) -> usize {
        self.violations.len() - self.deny_count()
    }

    /// Whether the run should exit non-zero. Warnings only fail under
    /// `strict`.
    pub fn should_fail(&self, strict: bool) -> bool {
        self.deny_count() > 0 || (strict && !self.violations.is_empty())
    }

    /// Renders rustc-style text diagnostics plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{}[{}]: {}", v.severity.label(), v.rule, v.message);
            let _ = writeln!(out, "  --> {}:{}:{}", v.file, v.line, v.col);
            if !v.excerpt.is_empty() {
                let _ = writeln!(out, "   | {}", v.excerpt);
            }
        }
        let _ = writeln!(
            out,
            "detlint: {} file(s) scanned, {} deny, {} warn, {} suppressed",
            self.files_scanned,
            self.deny_count(),
            self.warn_count(),
            self.suppressions.len()
        );
        out
    }

    /// Renders the machine-readable JSON report (hand-rolled, like every
    /// other JSON artifact in this offline workspace).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"tool\": \"detlint\",\n");
        let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"deny\": {},", self.deny_count());
        let _ = writeln!(s, "  \"warn\": {},", self.warn_count());
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"rule\": ");
            push_json_str(&mut s, &v.rule);
            let _ = write!(s, ", \"severity\": \"{}\"", v.severity.label());
            s.push_str(", \"file\": ");
            push_json_str(&mut s, &v.file);
            let _ = write!(
                s,
                ", \"line\": {}, \"col\": {}, \"message\": ",
                v.line, v.col
            );
            push_json_str(&mut s, &v.message);
            s.push_str(", \"excerpt\": ");
            push_json_str(&mut s, &v.excerpt);
            s.push('}');
        }
        s.push_str("\n  ],\n  \"suppressions\": [");
        for (i, sp) in self.suppressions.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"rule\": ");
            push_json_str(&mut s, &sp.rule);
            s.push_str(", \"file\": ");
            push_json_str(&mut s, &sp.file);
            let _ = write!(s, ", \"line\": {}, \"reason\": ", sp.line);
            push_json_str(&mut s, &sp.reason);
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `pat` in `hay` at identifier boundaries, returning the 0-based
/// byte offset. Boundary checks only apply to pattern ends that are
/// themselves identifier characters (so `.sum::<f64>()` matches mid-chain).
fn find_word(hay: &str, pat: &str) -> Option<usize> {
    let hb = hay.as_bytes();
    let pb = pat.as_bytes();
    let head_ident = pb.first().copied().is_some_and(is_ident_byte);
    let tail_ident = pb.last().copied().is_some_and(is_ident_byte);
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(pat) {
        let abs = from + pos;
        let pre_ok = !head_ident || abs == 0 || !is_ident_byte(hb[abs - 1]);
        let end = abs + pb.len();
        let post_ok = !tail_ident || end >= hb.len() || !is_ident_byte(hb[end]);
        if pre_ok && post_ok {
            return Some(abs);
        }
        from = abs + 1;
    }
    None
}

/// One rule match before suppression resolution (shared shape for the
/// lexical and semantic layers).
struct Candidate {
    rule: String,
    severity: Severity,
    line: usize,
    col: usize,
    message: String,
}

/// The crate a repo-relative path belongs to, for symbol-table and
/// call-graph grouping. Compat shims are crates of their own.
fn crate_root(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some("compat"), Some(shim)) => format!("crates/compat/{shim}"),
        (Some("crates"), Some(name), _) => format!("crates/{name}"),
        (Some(top), _, _) => top.to_string(),
        (None, _, _) => String::new(),
    }
}

/// Lints a file set through the full pipeline: lexical pattern rules plus
/// the semantic contract packs over per-crate syntax models, unified
/// pragma suppression, and unused-pragma reporting. `files` holds
/// `(repo-relative path, source)` pairs; violations come out sorted by
/// `(file, line, col, rule)` so reports are deterministic regardless of
/// input order.
pub fn lint_files(files: &[(String, String)]) -> LintOutcome {
    let mut out = LintOutcome {
        files_scanned: files.len(),
        ..LintOutcome::default()
    };

    let stripped: Vec<lexer::Stripped> = files.iter().map(|(_, src)| lexer::strip(src)).collect();

    // Per-crate syntax models for the semantic packs, then findings
    // bucketed back onto their file index.
    let mut by_crate: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, (path, _)) in files.iter().enumerate() {
        by_crate.entry(crate_root(path)).or_default().push(i);
    }
    let file_index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (p, _))| (p.as_str(), i))
        .collect();
    let mut sem_findings: Vec<semantic::SemFinding> = Vec::new();
    for (root, idxs) in &by_crate {
        let cm = syntax::CrateModel {
            root: root.clone(),
            files: idxs
                .iter()
                .map(|&i| syntax::parse_file(&files[i].0, &stripped[i].masked))
                .collect(),
        };
        semantic::run_packs(&cm, &mut sem_findings);
    }

    for (i, (path, src)) in files.iter().enumerate() {
        let src_lines: Vec<&str> = src.lines().collect();
        let excerpt = |line: usize| {
            src_lines
                .get(line.wrapping_sub(1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default()
        };

        // Index pragmas; flag hygiene errors (unknown rule / missing
        // reason) — a broken pragma must never silently suppress, and it
        // is excluded from unused-pragma tracking (one diagnostic, not
        // two, per bad pragma).
        let pragmas = &stripped[i].pragmas;
        let mut used = vec![false; pragmas.len()];
        let mut valid = vec![false; pragmas.len()];
        let mut file_allows: BTreeMap<&str, usize> = BTreeMap::new();
        let mut line_allows: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pi, p) in pragmas.iter().enumerate() {
            let known = rules::known_rule(&p.rule);
            if !known || p.reason.is_empty() {
                let why = if p.rule.is_empty() {
                    "malformed detlint pragma (expected `detlint:allow(<rule>): <reason>`)"
                        .to_string()
                } else if !known {
                    format!("detlint pragma names unknown rule `{}`", p.rule)
                } else {
                    format!(
                        "detlint pragma for `{}` is missing its mandatory reason \
                         (`detlint:allow({}): <why this is sound>`)",
                        p.rule, p.rule
                    )
                };
                out.violations.push(Violation {
                    rule: PRAGMA_RULE.to_string(),
                    severity: Severity::Deny,
                    file: path.clone(),
                    line: p.line,
                    col: 1,
                    excerpt: excerpt(p.line),
                    message: why,
                });
                continue;
            }
            valid[pi] = true;
            if p.file_level {
                file_allows.entry(p.rule.as_str()).or_insert(pi);
            } else {
                line_allows.entry(p.target_line()).or_default().push(pi);
            }
        }

        // Candidate pool: lexical matches plus this file's semantic
        // findings, all resolved against the same pragma index.
        let mut candidates: Vec<Candidate> = Vec::new();
        for rule in RULES.iter().filter(|r| r.applies_to(path)) {
            for (idx, masked_line) in stripped[i].masked.lines().enumerate() {
                let hit = rule
                    .patterns
                    .iter()
                    .filter_map(|pat| find_word(masked_line, pat))
                    .min();
                let Some(col0) = hit else { continue };
                candidates.push(Candidate {
                    rule: rule.id.to_string(),
                    severity: rule.severity,
                    line: idx + 1,
                    col: col0 + 1,
                    message: rule.message.to_string(),
                });
            }
        }
        for f in sem_findings
            .iter()
            .filter(|f| file_index.get(f.file.as_str()) == Some(&i))
        {
            candidates.push(Candidate {
                rule: f.rule.to_string(),
                severity: f.severity,
                line: f.line,
                col: 1,
                message: f.message.clone(),
            });
        }
        candidates.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));

        for c in candidates {
            // Suppression: file-level first, then line-level.
            let pragma = file_allows.get(c.rule.as_str()).copied().or_else(|| {
                line_allows
                    .get(&c.line)
                    .and_then(|ps| ps.iter().copied().find(|&pi| pragmas[pi].rule == c.rule))
            });
            if let Some(pi) = pragma {
                used[pi] = true;
                out.suppressions.push(Suppression {
                    rule: c.rule,
                    file: path.clone(),
                    line: c.line,
                    reason: pragmas[pi].reason.clone(),
                });
                continue;
            }
            out.violations.push(Violation {
                rule: c.rule,
                severity: c.severity,
                file: path.clone(),
                line: c.line,
                col: c.col,
                excerpt: excerpt(c.line),
                message: c.message,
            });
        }

        // A valid allow that suppressed nothing is stale: the hazard it
        // documented is gone, or it never matched where it pointed. Warn
        // (an error under --strict) so the audit trail tracks the code.
        for (pi, p) in pragmas.iter().enumerate() {
            if valid[pi] && !used[pi] {
                out.violations.push(Violation {
                    rule: UNUSED_PRAGMA_RULE.to_string(),
                    severity: Severity::Warn,
                    file: path.clone(),
                    line: p.line,
                    col: 1,
                    excerpt: excerpt(p.line),
                    message: format!(
                        "detlint:allow{}({}) suppresses nothing in its scope — \
                         the rule no longer fires here; remove the stale pragma",
                        if p.file_level { "-file" } else { "" },
                        p.rule
                    ),
                });
            }
        }
    }

    out.violations
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    out.suppressions
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

/// Lints one file's source text, appending to `out`. `path` must be the
/// repo-relative `/`-separated path (rule scoping keys off it). The file
/// runs through the full pipeline — semantic packs see a single-file
/// crate model, so intra-file call graphs still resolve.
pub fn lint_source(path: &str, src: &str, out: &mut LintOutcome) {
    let one = lint_files(&[(path.to_string(), src.to_string())]);
    out.violations.extend(one.violations);
    out.suppressions.extend(one.suppressions);
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "results"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` (skipping `target/`, VCS and result
/// directories). File order is sorted, so the report is deterministic.
pub fn lint_root(root: &Path) -> io::Result<LintOutcome> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut rels: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rels.sort();
    let mut sources = Vec::with_capacity(rels.len());
    for rel in rels {
        let src = fs::read_to_string(root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR)))?;
        sources.push((rel, src));
    }
    Ok(lint_files(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> LintOutcome {
        let mut out = LintOutcome::default();
        lint_source(path, src, &mut out);
        out.files_scanned = 1;
        out
    }

    fn rules_hit(out: &LintOutcome) -> Vec<&str> {
        out.violations.iter().map(|v| v.rule.as_str()).collect()
    }

    // ---- nondet-iteration ------------------------------------------------

    #[test]
    fn nondet_iteration_positive() {
        let out = lint_one(
            "crates/simdfs/src/coverage.rs",
            "use std::collections::HashMap;\nlet m: HashMap<u32, u32> = HashMap::new();\n",
        );
        assert!(rules_hit(&out).contains(&"nondet-iteration"));
        // One violation per line, not per occurrence.
        assert_eq!(out.violations.len(), 2);
        assert_eq!(out.violations[0].line, 1);
        assert_eq!(out.violations[0].col, 23);
    }

    #[test]
    fn nondet_iteration_negative_btree_and_out_of_scope() {
        let out = lint_one(
            "crates/simdfs/src/coverage.rs",
            "use std::collections::BTreeMap;\nlet m: BTreeMap<u32, u32> = BTreeMap::new();\n",
        );
        assert!(out.violations.is_empty());
        // Compat shims are outside the state-path scope.
        let out = lint_one(
            "crates/compat/proptest/src/lib.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(out.violations.is_empty());
    }

    #[test]
    fn nondet_iteration_ignores_strings_and_comments() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "// a HashMap would be wrong here\nlet s = \"HashSet\";\n/* HashMap */\n",
        );
        assert!(out.violations.is_empty());
    }

    #[test]
    fn nondet_iteration_respects_identifier_boundaries() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "struct MyHashMapLike;\nlet x = HashMapExt::new();\n",
        );
        assert!(out.violations.is_empty());
    }

    // ---- wall-clock ------------------------------------------------------

    #[test]
    fn wall_clock_positive_and_clock_rs_exempt() {
        let src = "let t = std::time::Instant::now();\n";
        let out = lint_one("crates/themis/src/campaign.rs", src);
        assert!(rules_hit(&out).contains(&"wall-clock"));
        let out = lint_one("crates/simdfs/src/clock.rs", src);
        assert!(out.violations.is_empty());
        let out = lint_one("crates/bench/src/perf.rs", src);
        assert!(out.violations.is_empty());
    }

    // ---- ambient-rng -----------------------------------------------------

    #[test]
    fn ambient_rng_positive_everywhere_even_compat() {
        let out = lint_one(
            "crates/compat/rand/src/lib.rs",
            "pub fn thread_rng() -> StdRng { unimplemented!() }\n",
        );
        assert!(rules_hit(&out).contains(&"ambient-rng"));
    }

    #[test]
    fn seeded_rng_is_fine() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "let rng = StdRng::seed_from_u64(seed);\n",
        );
        assert!(out.violations.is_empty());
    }

    // ---- env-read --------------------------------------------------------

    #[test]
    fn env_read_scoping() {
        let src = "let v = std::env::var(\"THEMIS_SEED\");\n";
        let out = lint_one("crates/simdfs/src/sim.rs", src);
        assert!(rules_hit(&out).contains(&"env-read"));
        let out = lint_one("crates/bench/src/bin/repro.rs", src);
        assert!(out.violations.is_empty());
        // Examples and integration tests are in scope since the v2 sweep.
        let out = lint_one("crates/adaptors/examples/strategy_matrix.rs", src);
        assert!(rules_hit(&out).contains(&"env-read"));
        let out = lint_one("crates/bench/tests/grid_determinism.rs", src);
        assert!(rules_hit(&out).contains(&"env-read"));
    }

    // ---- float-order / float-accum --------------------------------------

    #[test]
    fn float_order_positive_total_cmp_negative() {
        let out = lint_one(
            "crates/simdfs/src/balancer.rs",
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n",
        );
        assert!(rules_hit(&out).contains(&"float-order"));
        let out = lint_one(
            "crates/simdfs/src/balancer.rs",
            "v.sort_by(|a, b| a.total_cmp(b));\n",
        );
        assert!(out.violations.is_empty());
    }

    #[test]
    fn float_accum_warns_only_in_scoring_files() {
        let src = "let mean = fills.iter().map(|(_, f)| f).sum::<f64>();\n";
        let out = lint_one("crates/themis/src/lvm.rs", src);
        assert_eq!(rules_hit(&out), vec!["float-accum"]);
        assert_eq!(out.violations[0].severity, Severity::Warn);
        assert_eq!(out.deny_count(), 0);
        assert!(!out.should_fail(false));
        assert!(out.should_fail(true));
        let out = lint_one("crates/themis/src/campaign.rs", src);
        assert!(out.violations.is_empty());
        // The streaming-tracker module carries float reduction only in its
        // pragma-documented differential reference arm, so it is covered.
        let out = lint_one("crates/simdfs/src/loadstats.rs", src);
        assert_eq!(rules_hit(&out), vec!["float-accum"]);
    }

    // ---- unsafe-code -----------------------------------------------------

    #[test]
    fn unsafe_code_positive_and_string_immunity() {
        let out = lint_one("crates/workload/src/lib.rs", "unsafe { *p = 3 }\n");
        assert!(rules_hit(&out).contains(&"unsafe-code"));
        let out = lint_one(
            "crates/workload/src/lib.rs",
            "let s = \"unsafe\"; // unsafe in comment\n",
        );
        assert!(out.violations.is_empty());
    }

    // ---- pragmas ---------------------------------------------------------

    #[test]
    fn pragma_with_reason_suppresses_and_is_recorded() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "// detlint:allow(nondet-iteration): test-only membership set, never iterated\n\
             let mut seen = std::collections::HashSet::new();\n",
        );
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressions.len(), 1);
        assert_eq!(out.suppressions[0].rule, "nondet-iteration");
        assert_eq!(out.suppressions[0].line, 2);
    }

    #[test]
    fn trailing_pragma_suppresses_its_own_line() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "let mut seen = std::collections::HashSet::new(); \
             // detlint:allow(nondet-iteration): membership only\n",
        );
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressions.len(), 1);
    }

    #[test]
    fn pragma_without_reason_is_a_violation_and_does_not_suppress() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "// detlint:allow(nondet-iteration)\n\
             let mut seen = std::collections::HashSet::new();\n",
        );
        let hit = rules_hit(&out);
        assert!(hit.contains(&"pragma-hygiene"));
        assert!(hit.contains(&"nondet-iteration"));
        assert!(out.suppressions.is_empty());
    }

    #[test]
    fn pragma_with_unknown_rule_is_flagged() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "// detlint:allow(no-such-rule): because\nlet x = 1;\n",
        );
        assert_eq!(rules_hit(&out), vec!["pragma-hygiene"]);
    }

    #[test]
    fn file_level_pragma_covers_all_matches() {
        let out = lint_one(
            "crates/themis/src/lvm.rs",
            "// detlint:allow-file(float-accum): all reductions iterate Vec in index order\n\
             let a = xs.iter().sum::<f64>();\n\
             let b = ys.iter().sum::<f64>();\n",
        );
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressions.len(), 2);
    }

    #[test]
    fn unused_pragma_is_warn_and_strict_fails() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "// detlint:allow(nondet-iteration): was a HashSet once\nlet x = 1;\n",
        );
        assert_eq!(rules_hit(&out), vec!["unused-pragma"]);
        assert_eq!(out.violations[0].severity, Severity::Warn);
        assert_eq!(out.violations[0].line, 1);
        assert!(out.violations[0].message.contains("suppresses nothing"));
        assert!(!out.should_fail(false));
        assert!(out.should_fail(true));
    }

    #[test]
    fn unused_file_level_pragma_is_flagged() {
        let out = lint_one(
            "crates/themis/src/lvm.rs",
            "// detlint:allow-file(float-accum): reductions were here once\nlet x = 1;\n",
        );
        assert_eq!(rules_hit(&out), vec!["unused-pragma"]);
        assert!(out.violations[0]
            .message
            .contains("allow-file(float-accum)"));
    }

    #[test]
    fn used_pragma_is_not_flagged_unused() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "// detlint:allow(nondet-iteration): membership only, never iterated\n\
             let mut seen = std::collections::HashSet::new();\n",
        );
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressions.len(), 1);
    }

    #[test]
    fn hygiene_broken_pragma_is_not_double_flagged_as_unused() {
        // One diagnostic per bad pragma: the hygiene error, not hygiene +
        // unused.
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "// detlint:allow(nondet-iteration)\nlet x = 1;\n",
        );
        assert_eq!(rules_hit(&out), vec!["pragma-hygiene"]);
    }

    #[test]
    fn semantic_pack_pragmas_pass_hygiene_and_suppress() {
        let out = lint_one(
            "crates/simdfs/src/sim.rs",
            "impl DfsSim { fn corrupt(&mut self) {\n\
                // detlint:allow(journal-coverage): deliberate corruption for the auditor test\n\
                self.cluster.storage.get_mut(&id).unwrap().volumes[0].used += 1;\n\
             } }\n",
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.suppressions.len(), 1);
        assert_eq!(out.suppressions[0].rule, "journal-coverage");
    }

    #[test]
    fn meta_rules_are_not_allowable() {
        let out = lint_one(
            "crates/themis/src/gen.rs",
            "// detlint:allow(unused-pragma): trying to excuse staleness\nlet x = 1;\n",
        );
        assert_eq!(rules_hit(&out), vec!["pragma-hygiene"]);
    }

    #[test]
    fn pragma_does_not_suppress_other_rules() {
        let out = lint_one(
            "crates/simdfs/src/sim.rs",
            "// detlint:allow(nondet-iteration): wrong rule\n\
             let t = Instant::now();\n",
        );
        assert!(rules_hit(&out).contains(&"wall-clock"));
    }

    // ---- report rendering ------------------------------------------------

    #[test]
    fn json_report_escapes_and_counts() {
        let mut out = LintOutcome::default();
        lint_source(
            "crates/simdfs/src/sim.rs",
            "let m = std::collections::HashMap::<u8, \u{8}u8>::new();\n",
            &mut out,
        );
        out.files_scanned = 1;
        let js = out.to_json();
        assert!(js.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(js.contains("\"deny\": 1"));
        assert!(js.contains("\"rule\": \"nondet-iteration\""));
        assert!(js.contains("\\u0008"));
    }

    #[test]
    fn text_report_is_rustc_style() {
        let out = lint_one("crates/simdfs/src/sim.rs", "let t = Instant::now();\n");
        let txt = out.render_text();
        assert!(txt.contains("deny[wall-clock]"));
        assert!(txt.contains("--> crates/simdfs/src/sim.rs:1:9"));
    }
}
