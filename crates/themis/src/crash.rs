//! Bounded crash-point exploration of the target's migration pipeline.
//!
//! Themis's environment faults fire at scheduled virtual-clock times, but
//! imbalance *repair* — plan → copy → commit → cleanup — is exactly where
//! crash-consistency bugs hide, and a randomly timed crash rarely lands
//! inside those short windows. Following B3's bounded black-box crash
//! testing, [`enumerate_window`] instead records every deterministic crash
//! point the target passes within one rebalance window (via
//! [`CrashExplorable`]), quantum by quantum, and [`explore_bounded`] then
//! walks the window forward once with the fork/restore engine
//! ([`SnapshotCapable`]): for each point it crashes the machine applying
//! that micro-step, restarts it, runs recovery, asks the target's
//! crash-consistency oracle whether every namespace/replica/accounting
//! invariant still holds, and restores a cursor mark at the start of the
//! point's quantum. A crash re-executes at most one quantum, so an arm
//! costs O(quanta + points) quanta instead of one window replay per point.
//!
//! [`explore_random`] is the control arm: the same fork budget spent on
//! randomly timed crashes over an oversampled horizon (modelling how a
//! scheduled fault usually misses the micro-windows), visited by the same
//! walk. The campaign report carries both, so a run demonstrates not just
//! *what* bounded exploration found but what random injection would have
//! missed.

use crate::adaptor::{CrashOracleViolation, DfsAdaptor, SnapshotCapable};
use crate::spec::{Operand, Operation, Operator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub use crate::adaptor::CrashExplorable;

/// Tuning for one crash-exploration campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashExplorerConfig {
    /// Upper bound on crash points explored (the "bounded" in bounded
    /// exploration): points past the bound are enumerated but not crashed.
    pub bound: u64,
    /// Driving quanta per rebalance window (each quantum is the target's
    /// [`CrashExplorable::window_step_ms`]); the enumeration pass drives
    /// all of them, and each arm's walk drives each at most once plus one
    /// per crash.
    pub window_ticks: u32,
    /// Priming workload: files created before the storage expansion.
    pub prime_files: u32,
    /// Priming workload: size of each created file in bytes.
    pub prime_file_bytes: u64,
    /// Priming workload: capacity of the storage node added to queue a
    /// rebalance (and shift DHT hash ranges, so linkfile transitions
    /// occur).
    pub prime_storage_bytes: u64,
    /// Seed for the random-time baseline arm.
    pub seed: u64,
    /// The random baseline draws crash indices from `points × oversample`:
    /// the factor models wall-clock time that is *not* inside any
    /// migration micro-window, which randomly timed faults mostly hit.
    pub oversample: u64,
}

impl Default for CrashExplorerConfig {
    fn default() -> Self {
        CrashExplorerConfig {
            bound: 96,
            window_ticks: 60,
            prime_files: 30,
            prime_file_bytes: 16 << 20,
            prime_storage_bytes: 4 << 30,
            seed: 0x7EA1_5EED,
            oversample: 32,
        }
    }
}

/// One explored crash point whose oracle check failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashFinding {
    /// 0-based crash-point index within the window.
    pub point: u64,
    /// Micro-step label of the interrupted move.
    pub label: String,
    /// The invariant violation the oracle reported after recovery.
    pub violation: CrashOracleViolation,
}

/// Outcome of one exploration arm (bounded or random baseline).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashExplorationReport {
    /// Crash points the enumeration pass counted in the window.
    pub points_enumerated: u64,
    /// Crash-and-recover cycles actually executed.
    pub explored: u64,
    /// Crash-and-recover cycles spent, each one fork restored at its end,
    /// plus one for the enumeration pass in the bounded arm — the
    /// execution budget both arms are compared on.
    pub forks: u64,
    /// Explored points whose recovery passed every invariant.
    pub clean: u64,
    /// Violations, in crash-point order.
    pub findings: Vec<CrashFinding>,
    /// Violations per stable class name.
    pub by_class: BTreeMap<String, u64>,
}

impl CrashExplorationReport {
    /// Whether a violation of `class` was found.
    pub fn found(&self, class: &str) -> bool {
        self.by_class.contains_key(class)
    }

    fn record(&mut self, point: u64, label: String, violation: Option<CrashOracleViolation>) {
        self.explored += 1;
        match violation {
            Some(v) => {
                *self.by_class.entry(v.class.clone()).or_insert(0) += 1;
                self.findings.push(CrashFinding {
                    point,
                    label,
                    violation: v,
                });
            }
            None => self.clean += 1,
        }
    }
}

/// A full crash-campaign result: the bounded arm plus the equal-budget
/// random baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashCampaignResult {
    /// Target name as reported by the adaptor.
    pub target: String,
    /// The bounded crash-point exploration arm.
    pub bounded: CrashExplorationReport,
    /// The random-time control arm, same fork budget.
    pub baseline: CrashExplorationReport,
}

/// Standard splitmix64 step — the deterministic generator behind the
/// random baseline's crash-index draws.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The crash points one rebalance window passes, quantum by quantum, as
/// [`enumerate_window`] recorded them. Both exploration arms walk the
/// window against this record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashWindow {
    /// Labels of every point, in the order the window passes them.
    labels: Vec<String>,
    /// `starts[q]` is the index of quantum `q`'s first point; the last
    /// entry (one past the final quantum) is the number of points.
    starts: Vec<u64>,
}

impl CrashWindow {
    /// Crash points the window passes.
    pub fn points(&self) -> u64 {
        self.labels.len() as u64
    }

    /// Driving quanta the window spans.
    fn quanta(&self) -> usize {
        self.starts.len() - 1
    }

    /// The quantum that passes point `k`, or [`CrashWindow::quanta`] (the
    /// window's end) for a point past the window. Empty quanta hold none.
    fn quantum_of(&self, k: u64) -> usize {
        self.starts.partition_point(|&s| s <= k) - 1
    }

    /// Labels of the points quantum `q` passes.
    fn labels_of(&self, q: usize) -> &[String] {
        &self.labels[self.starts[q] as usize..self.starts[q + 1] as usize]
    }
}

/// What one crash-and-recover cycle observed: the interrupted
/// micro-step's label and the oracle's verdict, or `None` when the armed
/// point lay past the window and nothing fired.
type Outcome = Option<(String, Option<CrashOracleViolation>)>;

fn crash_points(a: &mut dyn DfsAdaptor) -> Result<&mut dyn CrashExplorable, String> {
    a.crash_points()
        .ok_or_else(|| "target does not expose crash points".into())
}

fn snapshots(a: &mut dyn DfsAdaptor) -> Result<&mut dyn SnapshotCapable, String> {
    a.snapshots()
        .ok_or_else(|| "crash exploration requires fork/restore".into())
}

/// Opts the target into its runtime audit — exploration *wants* the
/// release-mode oracle on every restore — and marks the window start.
/// Returns the driving quantum and the mark.
fn begin_window(a: &mut dyn DfsAdaptor) -> Result<(u64, u64), String> {
    let cp = crash_points(a)?;
    let step_ms = cp.window_step_ms();
    cp.set_runtime_audit(true);
    Ok((step_ms, snapshots(a)?.snapshot()))
}

/// Rewinds to the window-start mark and drops it, leaving the target as
/// [`begin_window`] found it.
fn end_window(a: &mut dyn DfsAdaptor, mark: u64) -> Result<(), String> {
    let snaps = snapshots(a)?;
    if !snaps.restore(mark) {
        return Err("window fork mark died mid-exploration".into());
    }
    snaps.release(mark);
    Ok(())
}

/// Drives one quantum under enumeration, returning the labels of the
/// crash points it passed.
fn pass_quantum(a: &mut dyn DfsAdaptor, step_ms: u64) -> Result<Vec<String>, String> {
    crash_points(a)?.arm_enumeration();
    a.wait(step_ms);
    Ok(crash_points(a)?.disarm())
}

/// Enumeration pass: starts a rebalance and drives `cfg.window_ticks`
/// fixed-size quanta, re-arming enumeration every quantum to record
/// where each quantum's points start, then rewinds to the window start.
/// Identical driving on every later walk makes the indices recorded here
/// address the same micro-steps when crashed.
pub fn enumerate_window(
    a: &mut dyn DfsAdaptor,
    cfg: &CrashExplorerConfig,
) -> Result<CrashWindow, String> {
    let (step_ms, mark) = begin_window(a)?;
    a.rebalance();
    let mut window = CrashWindow {
        labels: Vec::new(),
        starts: vec![0],
    };
    for _ in 0..cfg.window_ticks {
        let passed = pass_quantum(a, step_ms)?;
        window.labels.extend(passed);
        window.starts.push(window.points());
    }
    end_window(a, mark)?;
    Ok(window)
}

/// Walks the window forward once from its start, crashing at each of
/// `targets` (crash-point indices, ascending) in turn. A cursor mark sits
/// at the start of the quantum holding the next target; every target gets
/// its own cycle — arm at its index relative to the quantum, drive that
/// one quantum (none for a point past the window), recover, oracle-check,
/// disarm, restore the cursor. The cursor moves forward by replaying
/// quanta under enumeration, each of which must pass exactly the points
/// the enumeration recorded. So a crash re-executes at most one quantum,
/// an arm drives O(quanta + targets) quanta, and at most two marks (the
/// window start and the cursor) are live.
///
/// Returns one outcome per target, in `targets` order. A replay that
/// departs from the enumeration is an error naming the quantum.
fn walk(
    a: &mut dyn DfsAdaptor,
    window: &CrashWindow,
    targets: &[u64],
) -> Result<Vec<Outcome>, String> {
    let (step_ms, mark) = begin_window(a)?;
    a.rebalance();
    let mut at = 0; // the quantum whose start the target is at
    let mut cursor = None;
    let mut outcomes = Vec::with_capacity(targets.len());
    for &k in targets {
        let q = window.quantum_of(k);
        if cursor.is_none() || q > at {
            if let Some(c) = cursor {
                snapshots(a)?.release(c);
            }
            while at < q {
                let passed = pass_quantum(a, step_ms)?;
                let want = window.labels_of(at);
                if passed != want {
                    let i = passed.iter().zip(want).take_while(|(p, w)| p == w).count();
                    return Err(format!(
                        "quantum {at} diverged on replay at crash point {}: passed {:?} \
                         ({} points) where the enumeration recorded {:?} ({} points)",
                        window.starts[at] + i as u64,
                        passed.get(i),
                        passed.len(),
                        want.get(i),
                        want.len()
                    ));
                }
                at += 1;
            }
            cursor = Some(snapshots(a)?.snapshot());
        }
        crash_points(a)?.arm_crash_at(k - window.starts[q]);
        if q < window.quanta() {
            a.wait(step_ms);
        }
        let cp = crash_points(a)?;
        let want = window.labels.get(k as usize);
        let outcome = match (cp.recover(), want) {
            (None, None) => None,
            (Some(label), Some(w)) if label == *w => {
                let violation = cp.check_invariants();
                Some((label, violation))
            }
            (got, want) => {
                return Err(format!(
                    "quantum {q} diverged on replay: crash point {k} fired at {got:?} \
                     where the enumeration recorded {want:?}"
                ))
            }
        };
        cp.disarm();
        let c = cursor.expect("a cursor mark is taken before the first crash");
        if !snapshots(a)?.restore(c) {
            return Err("window cursor mark died mid-exploration".into());
        }
        outcomes.push(outcome);
    }
    end_window(a, mark)?;
    Ok(outcomes)
}

/// Bounded exploration: crash at each of the window's first `cfg.bound`
/// points in turn, recover, and oracle-check.
///
/// The target must expose both [`CrashExplorable`] and fork/restore;
/// errors otherwise, and on any replay that departs from `window`.
pub fn explore_bounded(
    a: &mut dyn DfsAdaptor,
    cfg: &CrashExplorerConfig,
    window: &CrashWindow,
) -> Result<CrashExplorationReport, String> {
    let targets: Vec<u64> = (0..window.points().min(cfg.bound)).collect();
    let outcomes = walk(a, window, &targets)?;
    let mut report = CrashExplorationReport {
        points_enumerated: window.points(),
        forks: 1 + targets.len() as u64, // the enumeration pass + one per point
        ..CrashExplorationReport::default()
    };
    for (k, outcome) in targets.into_iter().zip(outcomes) {
        if let Some((label, violation)) = outcome {
            report.record(k, label, violation);
        }
    }
    Ok(report)
}

/// Random-time control arm: the same fork budget as a bounded run, but
/// each fork crashes at an index drawn uniformly from `points ×
/// cfg.oversample` — most draws land in "time" outside any migration
/// micro-window and fire nothing, exactly how scheduled fault injection
/// behaves. Draws are visited in index order (ties by draw number) so one
/// forward walk covers them, and recorded in draw order.
pub fn explore_random(
    a: &mut dyn DfsAdaptor,
    cfg: &CrashExplorerConfig,
    window: &CrashWindow,
    budget: u64,
) -> Result<CrashExplorationReport, String> {
    let horizon = window.points().saturating_mul(cfg.oversample).max(1);
    let draws: Vec<u64> = (0..budget)
        .map(|i| splitmix64(cfg.seed ^ i) % horizon)
        .collect();
    let mut order: Vec<usize> = (0..draws.len()).collect();
    order.sort_by_key(|&i| (draws[i], i));
    let targets: Vec<u64> = order.iter().map(|&i| draws[i]).collect();
    let mut outcomes: Vec<Outcome> = vec![None; draws.len()];
    for (i, outcome) in order.into_iter().zip(walk(a, window, &targets)?) {
        outcomes[i] = outcome;
    }
    let mut report = CrashExplorationReport {
        points_enumerated: window.points(),
        forks: budget,
        ..CrashExplorationReport::default()
    };
    for (k, outcome) in draws.into_iter().zip(outcomes) {
        if let Some((label, violation)) = outcome {
            report.record(k, label, violation);
        }
    }
    Ok(report)
}

/// The crash campaign mode: primes the target with a skewed create burst
/// plus a storage expansion (queueing a real rebalance window and
/// shifting hash ranges so linkfile transitions occur), enumerates the
/// window, then runs the bounded arm and the equal-budget random baseline
/// over it from the same state, which the target is back at afterwards.
pub fn run_crash_campaign(
    a: &mut dyn DfsAdaptor,
    cfg: &CrashExplorerConfig,
) -> Result<CrashCampaignResult, String> {
    for i in 0..cfg.prime_files {
        let op = Operation::new(
            Operator::Create,
            vec![
                Operand::FileName(format!("/cf{i}")),
                Operand::Size(cfg.prime_file_bytes),
            ],
        );
        a.send(&op).map_err(|e| format!("priming create: {e}"))?;
    }
    let grow = Operation::new(
        Operator::AddStorage,
        vec![Operand::Size(cfg.prime_storage_bytes)],
    );
    a.send(&grow)
        .map_err(|e| format!("priming expansion: {e}"))?;

    let window = enumerate_window(a, cfg)?;
    let bounded = explore_bounded(a, cfg, &window)?;
    let baseline = explore_random(a, cfg, &window, bounded.forks)?;
    Ok(CrashCampaignResult {
        target: a.name(),
        bounded,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::{AdaptorError, LoadReport, NodeInventory};

    /// A toy crash-explorable target: every window passes a fixed label
    /// sequence, one point per wait() quantum, and recovery from some
    /// steps leaves a seeded violation. Like the simulator, it counts
    /// crash points from the last arm.
    struct FakeTarget {
        labels: Vec<&'static str>,
        /// (tick cursor, fired label, recovered label) — the forkable state.
        tick: u64,
        fired: Option<&'static str>,
        recovered: Option<&'static str>,
        plan: Option<FakePlan>,
        /// Crash points passed since the last arm.
        seen: u64,
        enumerated: Vec<String>,
        /// Live marks, oldest first: (id, tick, fired, recovered).
        snaps: Vec<(u64, u64, Option<&'static str>, Option<&'static str>)>,
        next_snap: u64,
        /// Most marks ever live at once.
        max_live: usize,
        /// wait() calls, never rewound by a restore.
        waits: u64,
        audit_on: bool,
        /// Passes made through each tick, never rewound by a restore.
        passes: Vec<u32>,
        /// `(tick, pass, how)`: that pass through that tick departs from
        /// the others.
        diverge: Option<(usize, u32, Divergence)>,
    }

    #[derive(Clone, Copy)]
    enum FakePlan {
        Enumerate,
        At(u64),
    }

    /// How a diverging pass departs from the label sequence.
    #[derive(Clone, Copy, Debug)]
    enum Divergence {
        /// Passes a point with a different label.
        Relabel,
        /// Passes no point.
        Skip,
    }

    impl FakeTarget {
        fn new() -> Self {
            let labels = vec![
                "plan f1 0->9",
                "copy 1/2 f1 0->9",
                "copy 2/2 f1 0->9",
                "commit-swap f1 0->9",
                "commit-account f1 0->9",
                "cleanup f1 0->9",
            ];
            FakeTarget {
                passes: vec![0; labels.len()],
                labels,
                tick: 0,
                fired: None,
                recovered: None,
                plan: None,
                seen: 0,
                enumerated: Vec::new(),
                snaps: Vec::new(),
                next_snap: 0,
                max_live: 0,
                waits: 0,
                audit_on: false,
                diverge: None,
            }
        }

        fn class_for(label: &str) -> Option<&'static str> {
            if label.starts_with("copy") {
                Some("orphan_replica")
            } else if label.starts_with("commit-swap") {
                Some("double_counted_blocks")
            } else if label.starts_with("commit-account") {
                Some("lost_linkfile")
            } else {
                None
            }
        }
    }

    impl DfsAdaptor for FakeTarget {
        fn name(&self) -> String {
            "fake-target".into()
        }
        fn send(&mut self, _op: &Operation) -> Result<(), AdaptorError> {
            Ok(())
        }
        fn load_report(&mut self) -> LoadReport {
            LoadReport::default()
        }
        fn rebalance(&mut self) {}
        fn rebalance_done(&mut self) -> bool {
            true
        }
        fn wait(&mut self, _ms: u64) {
            self.waits += 1;
            if self.fired.is_some() {
                return;
            }
            let idx = self.tick as usize;
            self.tick += 1;
            let Some(&label) = self.labels.get(idx) else {
                return;
            };
            self.passes[idx] += 1;
            let label = match self.diverge {
                Some((tick, pass, how)) if tick == idx && pass == self.passes[idx] => match how {
                    Divergence::Relabel => "copy 2/2 f1 0->8",
                    Divergence::Skip => return,
                },
                _ => label,
            };
            let n = self.seen;
            self.seen += 1;
            match self.plan {
                Some(FakePlan::Enumerate) => self.enumerated.push(label.to_string()),
                Some(FakePlan::At(k)) if k == n => self.fired = Some(label),
                _ => {}
            }
        }
        fn reset(&mut self) {
            self.tick = 0;
            self.snaps.clear();
        }
        fn coverage(&mut self) -> u64 {
            0
        }
        fn now_ms(&mut self) -> u64 {
            self.tick
        }
        fn inventory(&mut self) -> NodeInventory {
            NodeInventory::default()
        }
        fn snapshots(&mut self) -> Option<&mut dyn SnapshotCapable> {
            Some(self)
        }
        fn crash_points(&mut self) -> Option<&mut dyn CrashExplorable> {
            Some(self)
        }
    }

    impl SnapshotCapable for FakeTarget {
        fn snapshot(&mut self) -> u64 {
            let id = self.next_snap;
            self.next_snap += 1;
            self.snaps.push((id, self.tick, self.fired, self.recovered));
            self.max_live = self.max_live.max(self.snaps.len());
            id
        }
        fn restore(&mut self, id: u64) -> bool {
            let Some(pos) = self.snaps.iter().position(|s| s.0 == id) else {
                return false;
            };
            (_, self.tick, self.fired, self.recovered) = self.snaps[pos];
            self.snaps.truncate(pos + 1);
            true
        }
        fn release(&mut self, id: u64) {
            self.snaps.retain(|s| s.0 != id);
        }
    }

    impl CrashExplorable for FakeTarget {
        fn arm_enumeration(&mut self) {
            self.plan = Some(FakePlan::Enumerate);
            self.seen = 0;
            self.enumerated.clear();
        }
        fn arm_crash_at(&mut self, k: u64) {
            self.plan = Some(FakePlan::At(k));
            self.seen = 0;
            self.fired = None;
            self.recovered = None;
        }
        fn disarm(&mut self) -> Vec<String> {
            self.plan = None;
            std::mem::take(&mut self.enumerated)
        }
        fn crash_fired(&mut self) -> bool {
            self.fired.is_some()
        }
        fn recover(&mut self) -> Option<String> {
            let label = self.fired.take()?;
            self.recovered = Some(label);
            Some(label.to_string())
        }
        fn check_invariants(&mut self) -> Option<CrashOracleViolation> {
            let label = self.recovered?;
            Self::class_for(label).map(|class| CrashOracleViolation {
                class: class.into(),
                detail: format!("seeded at '{label}'"),
            })
        }
        fn window_step_ms(&self) -> u64 {
            1_000
        }
        fn set_runtime_audit(&mut self, on: bool) {
            self.audit_on = on;
        }
    }

    #[test]
    fn bounded_exploration_visits_every_point_and_classifies() {
        let mut t = FakeTarget::new();
        let cfg = CrashExplorerConfig {
            window_ticks: 10,
            ..CrashExplorerConfig::default()
        };
        let window = enumerate_window(&mut t, &cfg).unwrap();
        let report = explore_bounded(&mut t, &cfg, &window).unwrap();
        assert_eq!(report.points_enumerated, 6);
        assert_eq!(report.explored, 6);
        assert_eq!(report.forks, 7, "enumeration + one replay per point");
        assert_eq!(report.clean, 2, "plan and cleanup recover clean");
        assert_eq!(report.by_class.get("orphan_replica"), Some(&2));
        assert_eq!(report.by_class.get("double_counted_blocks"), Some(&1));
        assert_eq!(report.by_class.get("lost_linkfile"), Some(&1));
        assert!(t.audit_on, "exploration opts into the runtime audit");
    }

    #[test]
    fn the_bound_caps_explored_points() {
        let mut t = FakeTarget::new();
        let cfg = CrashExplorerConfig {
            bound: 2,
            window_ticks: 10,
            ..CrashExplorerConfig::default()
        };
        let window = enumerate_window(&mut t, &cfg).unwrap();
        let report = explore_bounded(&mut t, &cfg, &window).unwrap();
        assert_eq!(report.points_enumerated, 6);
        assert_eq!(report.explored, 2);
    }

    #[test]
    fn random_baseline_with_the_same_budget_misses_rare_windows() {
        let mut t = FakeTarget::new();
        let cfg = CrashExplorerConfig {
            window_ticks: 10,
            ..CrashExplorerConfig::default()
        };
        let window = enumerate_window(&mut t, &cfg).unwrap();
        let bounded = explore_bounded(&mut t, &cfg, &window).unwrap();
        let baseline = explore_random(&mut t, &cfg, &window, bounded.forks).unwrap();
        assert_eq!(baseline.forks, bounded.forks, "equal execution budget");
        let missed: Vec<&String> = bounded
            .by_class
            .keys()
            .filter(|c| !baseline.found(c))
            .collect();
        assert!(
            !missed.is_empty(),
            "oversampled random draws must miss some class; baseline found {:?}",
            baseline.by_class
        );
    }

    #[test]
    fn targets_without_the_capability_are_rejected() {
        struct Plain;
        impl DfsAdaptor for Plain {
            fn name(&self) -> String {
                "plain".into()
            }
            fn send(&mut self, _op: &Operation) -> Result<(), AdaptorError> {
                Ok(())
            }
            fn load_report(&mut self) -> LoadReport {
                LoadReport::default()
            }
            fn rebalance(&mut self) {}
            fn rebalance_done(&mut self) -> bool {
                true
            }
            fn wait(&mut self, _ms: u64) {}
            fn reset(&mut self) {}
            fn coverage(&mut self) -> u64 {
                0
            }
            fn now_ms(&mut self) -> u64 {
                0
            }
            fn inventory(&mut self) -> NodeInventory {
                NodeInventory::default()
            }
        }
        let cfg = CrashExplorerConfig::default();
        let window = enumerate_window(&mut FakeTarget::new(), &cfg).unwrap();
        assert!(enumerate_window(&mut Plain, &cfg).is_err());
        assert!(explore_bounded(&mut Plain, &cfg, &window).is_err());
        assert!(explore_random(&mut Plain, &cfg, &window, 4).is_err());
    }

    #[test]
    fn full_campaign_reports_both_arms() {
        let mut t = FakeTarget::new();
        let cfg = CrashExplorerConfig {
            window_ticks: 10,
            prime_files: 2,
            ..CrashExplorerConfig::default()
        };
        let result = run_crash_campaign(&mut t, &cfg).unwrap();
        assert_eq!(result.target, "fake-target");
        assert_eq!(result.bounded.by_class.len(), 3);
        assert!(result.baseline.forks == result.bounded.forks);
    }

    #[test]
    fn the_fake_counts_crash_points_from_the_last_arm() {
        let mut t = FakeTarget::new();
        t.wait(1_000);
        t.wait(1_000);
        t.arm_crash_at(1);
        t.wait(1_000);
        assert!(!t.crash_fired(), "copy 2/2 is point 0 since the arm");
        t.wait(1_000);
        assert_eq!(t.recover().as_deref(), Some("commit-swap f1 0->9"));
    }

    #[test]
    fn each_arm_passes_a_quantum_once_plus_once_per_crash_under_two_marks() {
        let mut t = FakeTarget::new();
        let cfg = CrashExplorerConfig {
            window_ticks: 10,
            ..CrashExplorerConfig::default()
        };
        let window = enumerate_window(&mut t, &cfg).unwrap();
        assert_eq!(t.waits, 10);
        t.waits = 0;
        let bounded = explore_bounded(&mut t, &cfg, &window).unwrap();
        // The cursor never passes the last point's quantum.
        assert_eq!(t.waits, 5 + bounded.explored);
        t.waits = 0;
        let baseline = explore_random(&mut t, &cfg, &window, 40).unwrap();
        assert!(baseline.explored > 0 && baseline.explored < 40);
        // Draws past the window send the cursor to the window's end.
        assert_eq!(t.waits, 10 + baseline.explored);
        assert_eq!(t.max_live, 2, "the window-start mark and the cursor");
        assert!(t.snaps.is_empty(), "every mark is released");
        assert_eq!(t.tick, 0, "the target is back at the window start");
    }

    #[test]
    fn a_diverging_replay_is_an_error_naming_the_quantum() {
        // With every point in bound, the second pass through quantum 2 is
        // the crash at point 2 and the third is the cursor advancing past
        // it; with bound 2, the random arm's walk makes the second pass.
        for (bound, pass) in [(96, 2), (96, 3), (2, 2)] {
            for how in [Divergence::Relabel, Divergence::Skip] {
                let mut t = FakeTarget::new();
                t.diverge = Some((2, pass, how));
                let cfg = CrashExplorerConfig {
                    bound,
                    window_ticks: 10,
                    ..CrashExplorerConfig::default()
                };
                let err = run_crash_campaign(&mut t, &cfg).unwrap_err();
                assert!(
                    err.starts_with("quantum 2 diverged on replay"),
                    "bound {bound}, pass {pass}, {how:?}: {err}"
                );
            }
        }
    }
}
