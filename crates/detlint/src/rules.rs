//! The determinism-and-safety rule set.
//!
//! Each rule is a set of code patterns (matched against comment/string
//! stripped source, see [`crate::lexer`]) plus a path scope expressed as
//! repo-relative prefixes. The scopes encode the workspace's determinism
//! contract (see DESIGN.md, "Determinism contract"):
//!
//! * campaign results are pure functions of `(seed, strategy, target)`;
//! * the only time source in simulation code is the virtual clock;
//! * the only randomness is the seeded `StdRng` from the compat shim;
//! * process environment never influences simulated behavior;
//! * float reductions in scoring paths must be order-pinned;
//! * no `unsafe` anywhere (the workspace also carries
//!   `unsafe_code = "forbid"`; the lint catches it in non-compiled cfg
//!   branches and keeps the allowlist explicit).

/// How severe a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported; fails the run only under `--strict`.
    Warn,
    /// Fails the run unconditionally.
    Deny,
}

impl Severity {
    /// Lower-case label used in diagnostics and the JSON report.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One lint rule: patterns plus a path scope.
#[derive(Debug)]
pub struct Rule {
    /// Stable identifier, referenced by suppression pragmas.
    pub id: &'static str,
    pub severity: Severity,
    /// One-line explanation attached to every diagnostic.
    pub message: &'static str,
    /// Code substrings that trigger the rule (identifier-boundary aware).
    pub patterns: &'static [&'static str],
    /// Repo-relative path prefixes the rule applies to; empty = everywhere.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule (the explicit allowlist).
    pub exclude: &'static [&'static str],
    /// If non-empty, the rule only applies to files with these basenames.
    pub only_files: &'static [&'static str],
}

/// Crates whose code feeds simulated state or campaign results. The compat
/// shims and the bench harness's wall-clock measurement layer live outside
/// this determinism domain; `detlint` itself only reads source text.
const STATE_PATHS: &[&str] = &[
    "crates/simdfs",
    "crates/themis",
    "crates/adaptors",
    "crates/workload",
    "src",
    "tests",
    "examples",
];

/// State paths plus the bench harness (bench aggregates campaign results
/// into the paper tables, so its containers must iterate in stable order
/// too; only its *timing* is exempt from the wall-clock rule).
const STATE_PATHS_AND_BENCH: &[&str] = &[
    "crates/simdfs",
    "crates/themis",
    "crates/bench",
    "crates/adaptors",
    "crates/workload",
    "src",
    "tests",
    "examples",
];

/// The rule table, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "nondet-iteration",
        severity: Severity::Deny,
        message: "unordered hash container in a deterministic state path; \
                  iteration order varies across runs — use BTreeMap/BTreeSet \
                  or iterate over sorted keys",
        patterns: &["HashMap", "HashSet"],
        include: STATE_PATHS_AND_BENCH,
        exclude: &[],
        only_files: &[],
    },
    Rule {
        id: "wall-clock",
        severity: Severity::Deny,
        message: "wall-clock time source outside the virtual clock; \
                  simulated behavior must only observe SimClock",
        patterns: &["Instant::now", "SystemTime", "std::time::Instant"],
        include: STATE_PATHS,
        exclude: &["crates/simdfs/src/clock.rs"],
        only_files: &[],
    },
    Rule {
        id: "ambient-rng",
        severity: Severity::Deny,
        message: "ambient randomness; every RNG must be constructed from an \
                  explicit seed (StdRng::seed_from_u64) so campaigns replay \
                  bit-identically",
        patterns: &["thread_rng", "from_entropy", "rand::random", "OsRng"],
        include: &[],
        exclude: &[],
        only_files: &[],
    },
    Rule {
        id: "env-read",
        severity: Severity::Deny,
        message: "process environment read outside the bench/repro binaries; \
                  simulated behavior must not depend on ambient process state",
        patterns: &["std::env", "env::var", "env::args", "env!"],
        include: &[
            "crates/simdfs",
            "crates/themis",
            "crates/adaptors",
            "crates/workload",
            "crates/bench/tests",
            "src",
            "tests",
            "examples",
        ],
        exclude: &[],
        only_files: &[],
    },
    Rule {
        id: "float-order",
        severity: Severity::Deny,
        message: "partial float comparison in an ordering position; NaN or \
                  platform-dependent tie-breaking silently reorders — use \
                  f64::total_cmp",
        patterns: &["partial_cmp"],
        include: STATE_PATHS_AND_BENCH,
        exclude: &[],
        only_files: &[],
    },
    Rule {
        id: "float-accum",
        severity: Severity::Warn,
        message: "float accumulation in a scoring path; reduction order must \
                  be pinned to a deterministic iteration (document with a \
                  pragma if the source is an ordered container)",
        patterns: &[
            ".sum::<f64>()",
            "fold(f64::MIN",
            "fold(f64::MAX",
            "fold(0.0",
        ],
        include: &[],
        exclude: &[],
        only_files: &["lvm.rs", "balancer.rs", "metrics.rs", "loadstats.rs"],
    },
    Rule {
        id: "unsafe-code",
        severity: Severity::Deny,
        message: "unsafe block outside the allowlist; the workspace forbids \
                  unsafe code (see [workspace.lints])",
        patterns: &["unsafe"],
        include: &[],
        exclude: &[],
        only_files: &[],
    },
];

/// Rule id used for pragma hygiene violations (malformed pragma, unknown
/// rule, missing reason). Not in [`RULES`] because it has no code pattern.
pub const PRAGMA_RULE: &str = "pragma-hygiene";

/// Rule id for `detlint:allow` pragmas that suppress nothing in their
/// scope. Warn severity (fails under `--strict`); not itself allowable —
/// a stale pragma is removed, not excused.
pub const UNUSED_PRAGMA_RULE: &str = "unused-pragma";

/// Looks up a rule by id.
pub fn find(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `id` names a rule an allow pragma may reference: any lexical
/// rule or semantic pack. The meta rules ([`PRAGMA_RULE`],
/// [`UNUSED_PRAGMA_RULE`]) are deliberately NOT allowable — hygiene and
/// staleness diagnostics must be fixed, never suppressed.
pub fn known_rule(id: &str) -> bool {
    find(id).is_some() || crate::semantic::find(id).is_some()
}

fn path_in(path: &str, prefix: &str) -> bool {
    path == prefix || path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/')
}

impl Rule {
    /// Whether the rule applies to a repo-relative path (`/`-separated).
    pub fn applies_to(&self, path: &str) -> bool {
        if !self.only_files.is_empty() {
            let base = path.rsplit('/').next().unwrap_or(path);
            if !self.only_files.contains(&base) {
                return false;
            }
        }
        if !self.include.is_empty() && !self.include.iter().any(|p| path_in(path, p)) {
            return false;
        }
        !self.exclude.iter().any(|p| path_in(path, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_prefix_matching_respects_boundaries() {
        let r = find("wall-clock").unwrap();
        assert!(r.applies_to("crates/simdfs/src/sim.rs"));
        assert!(!r.applies_to("crates/simdfs/src/clock.rs"));
        assert!(!r.applies_to("crates/bench/src/perf.rs"));
        assert!(!r.applies_to("crates/compat/rand/src/lib.rs"));
        // `src` must not match `srcery/…` or `crates/detlint/src/…`.
        assert!(r.applies_to("src/lib.rs"));
        assert!(!r.applies_to("srcery/lib.rs"));
        assert!(!r.applies_to("crates/detlint/src/main.rs"));
    }

    #[test]
    fn only_files_restricts_to_basenames() {
        let r = find("float-accum").unwrap();
        assert!(r.applies_to("crates/themis/src/lvm.rs"));
        assert!(r.applies_to("crates/simdfs/src/balancer.rs"));
        assert!(r.applies_to("crates/simdfs/src/loadstats.rs"));
        assert!(!r.applies_to("crates/simdfs/src/sim.rs"));
    }

    #[test]
    fn env_read_covers_examples_and_integration_tests() {
        let r = find("env-read").unwrap();
        assert!(r.applies_to("crates/simdfs/src/sim.rs"));
        // Examples and integration tests exercise simulated behavior, so
        // ambient process state is just as illegal there (a legit CLI arg
        // read carries a reasoned pragma instead of a scope hole).
        assert!(r.applies_to("crates/adaptors/examples/strategy_matrix.rs"));
        assert!(r.applies_to("crates/simdfs/tests/sim_properties.rs"));
        assert!(r.applies_to("crates/bench/tests/grid_determinism.rs"));
        // The repro binary and detlint itself own their process env.
        assert!(!r.applies_to("crates/bench/src/bin/repro.rs"));
        assert!(!r.applies_to("crates/detlint/src/main.rs"));
    }

    #[test]
    fn semantic_pack_ids_are_known_but_meta_rules_are_not_allowable() {
        assert!(known_rule("nondet-iteration"));
        assert!(known_rule("journal-coverage"));
        assert!(known_rule("tracker-completeness"));
        assert!(known_rule("crash-decomposition"));
        assert!(!known_rule(PRAGMA_RULE));
        assert!(!known_rule(UNUSED_PRAGMA_RULE));
        assert!(!known_rule("no-such-rule"));
    }

    #[test]
    fn rule_ids_are_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }
}
