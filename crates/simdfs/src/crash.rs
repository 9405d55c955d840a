//! Crash-point instrumentation over the migration pipeline.
//!
//! Every migration the balancer executes decomposes into enumerable
//! micro-steps — plan, per-fragment copy, file-table commit, source-space
//! reclaim, linkfile/cache cleanup — and the boundary after each completed
//! micro-step is a deterministic **crash point**. When the instrumentation
//! is armed (see [`crate::sim::DfsSim::arm_crash_enumeration`] /
//! [`crate::sim::DfsSim::arm_crash_at`]), the simulator either counts the
//! points it passes or kills the machine applying the step at exactly one
//! of them, leaving the mid-migration state a real power failure would.
//!
//! Recovery ([`crate::sim::DfsSim::recover_crashed_machine`]) restarts the
//! machine and runs the flavor's restart-time repair, which carries three
//! **seeded crash-window bug classes** — lost linkfiles, orphan replicas,
//! double-counted blocks — that only manifest when a crash lands inside
//! the matching micro-window. The crash-consistency oracle
//! ([`crate::sim::DfsSim::check_crash_invariants`]) re-derives the
//! namespace/replica/accounting invariants after recovery and classifies
//! any violation.
//!
//! There is one migration path: every move runs its micro-steps, armed or
//! not, so the explorer crashes the same code campaigns execute. Disarmed,
//! a crash point returns before touching any state.

use crate::balancer::MigrationMove;
use crate::types::{Bytes, NodeId};

/// Position of a crash point inside one migration's micro-step sequence:
/// the crash fires *after* the named micro-step completed and before the
/// next one starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStepKind {
    /// Planning/validation done; no data moved yet.
    Plan,
    /// Fragment `fragment` of `of` landed on the destination; the file
    /// table still points at the source.
    Copy {
        /// 1-based index of the fragment that just landed.
        fragment: u8,
        /// Total fragments in this move.
        of: u8,
    },
    /// The file table now names the destination, but the source space has
    /// not been reclaimed: the moved bytes are counted on both ends.
    CommitSwap,
    /// Source space reclaimed; linkfile/cache cleanup still pending.
    CommitAccount,
    /// The move is fully durable, cleanup included.
    Cleanup,
}

impl MigrationStepKind {
    /// Short deterministic label (`plan`, `copy 2/4`, ...).
    pub fn label(&self) -> String {
        match self {
            MigrationStepKind::Plan => "plan".to_string(),
            MigrationStepKind::Copy { fragment, of } => format!("copy {fragment}/{of}"),
            MigrationStepKind::CommitSwap => "commit-swap".to_string(),
            MigrationStepKind::CommitAccount => "commit-account".to_string(),
            MigrationStepKind::Cleanup => "cleanup".to_string(),
        }
    }

    /// Whether the file-table commit had landed when the crash fired (the
    /// linkfile invariant only binds completed moves).
    pub fn committed(&self) -> bool {
        matches!(
            self,
            MigrationStepKind::CommitAccount | MigrationStepKind::Cleanup
        )
    }
}

/// The migration a fired crash interrupted, as recorded at the instant the
/// victim machine went down. Recovery and the oracle both key off it.
#[derive(Debug, Clone)]
pub struct InFlightMove {
    /// The planned move being executed.
    pub mv: MigrationMove,
    /// Last micro-step that completed before the crash.
    pub step: MigrationStepKind,
    /// Bytes already landed on the destination volume.
    pub copied: Bytes,
    /// Source replica size (what a completed move would reclaim).
    pub moved: Bytes,
    /// Bytes the destination replica would hold after commit.
    pub kept: Bytes,
    /// The file's placement key (for the linkfile recompute).
    pub key: u64,
    /// The machine that crashed while applying the step.
    pub victim: NodeId,
    /// Crash-point index (0-based since arming) that fired.
    pub point: u64,
}

impl InFlightMove {
    /// Deterministic human-readable label for reports.
    pub fn label(&self) -> String {
        format!(
            "{} f{} {}->{}",
            self.step.label(),
            self.mv.file,
            self.mv.from,
            self.mv.to
        )
    }
}

/// What the armed instrumentation does at each crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashPlan {
    /// Count and label every crash point passed; never crash.
    Enumerate,
    /// Crash at the point with this 0-based index.
    At(u64),
}

/// Live crash-instrumentation state. Small and cloned wholesale into
/// snapshot-fork marks, so a restore rewinds it with everything else.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrashRuntime {
    /// `Some` while armed; `None` on the normal path, where every crash
    /// point returns at once.
    pub plan: Option<CrashPlan>,
    /// Crash points passed since arming.
    pub points_seen: u64,
    /// Labels of the points passed (enumeration mode only).
    pub labels: Vec<String>,
    /// Set when an armed crash fires; cleared by recovery.
    pub in_flight: Option<InFlightMove>,
    /// The last recovered move, kept for the oracle's classification.
    pub recovered: Option<InFlightMove>,
}

/// The seeded crash-window failure classes, plus a backstop for any other
/// corruption the release-mode audit uncovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashClass {
    /// A committed move lost its DHT linkfile rewrite: lookups at the hash
    /// location find neither data nor a pointer.
    LostLinkfile,
    /// Partially copied bytes on the destination that no file-table entry
    /// owns — allocated space nobody can ever reclaim.
    OrphanReplica,
    /// The moved bytes are counted on both the source and the destination
    /// (the source reclaim never ran after the commit).
    DoubleCountedBlocks,
    /// Any other inconsistency caught by the first-principles audit.
    Other,
}

impl CrashClass {
    /// Stable snake_case name used in reports and artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            CrashClass::LostLinkfile => "lost_linkfile",
            CrashClass::OrphanReplica => "orphan_replica",
            CrashClass::DoubleCountedBlocks => "double_counted_blocks",
            CrashClass::Other => "other",
        }
    }
}

/// One crash-consistency invariant violation found by the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashViolation {
    /// Which seeded class the violation belongs to.
    pub class: CrashClass,
    /// First-principles description of the inconsistency.
    pub detail: String,
}

impl std::fmt::Display for CrashViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.class.as_str(), self.detail)
    }
}

/// Deterministic fragment count for a migration of `bytes`: one fragment
/// per 256 MiB started, capped at 4 — enough structure for distinct
/// mid-copy crash points without exploding the exploration space.
pub(crate) fn fragment_count(bytes: Bytes) -> u8 {
    const FRAGMENT: Bytes = 256 << 20;
    let n = bytes.div_ceil(FRAGMENT).clamp(1, 4);
    n as u8
}

/// Size of fragment `i` (0-based) of `of` for a `bytes`-sized copy: even
/// split, remainder on the last fragment, so the sizes always sum to
/// `bytes`.
pub(crate) fn fragment_bytes(bytes: Bytes, of: u8, i: u8) -> Bytes {
    let of = of as Bytes;
    let i = i as Bytes;
    let share = bytes / of;
    if i + 1 == of {
        bytes - share * (of - 1)
    } else {
        share
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_cover_bytes_exactly() {
        for bytes in [1u64, 1 << 20, 256 << 20, (256 << 20) + 1, 3 << 30, 64] {
            let n = fragment_count(bytes);
            assert!((1..=4).contains(&n));
            let total: Bytes = (0..n).map(|i| fragment_bytes(bytes, n, i)).sum();
            assert_eq!(total, bytes, "fragments of {bytes} must sum back");
        }
    }

    #[test]
    fn step_labels_are_distinct_and_stable() {
        let steps = [
            MigrationStepKind::Plan,
            MigrationStepKind::Copy { fragment: 1, of: 2 },
            MigrationStepKind::Copy { fragment: 2, of: 2 },
            MigrationStepKind::CommitSwap,
            MigrationStepKind::CommitAccount,
            MigrationStepKind::Cleanup,
        ];
        let labels: Vec<String> = steps.iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(MigrationStepKind::CommitAccount.committed());
        assert!(!MigrationStepKind::CommitSwap.committed());
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(CrashClass::LostLinkfile.as_str(), "lost_linkfile");
        assert_eq!(CrashClass::OrphanReplica.as_str(), "orphan_replica");
        assert_eq!(
            CrashClass::DoubleCountedBlocks.as_str(),
            "double_counted_blocks"
        );
        assert_eq!(CrashClass::Other.as_str(), "other");
    }
}
