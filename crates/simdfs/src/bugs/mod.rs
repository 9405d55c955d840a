//! Latent imbalance failures: specifications, trigger engine and effects.
//!
//! Bugs are *armed* when the simulator is constructed (by version: the
//! "latest" versions carry the paper's 10 new bugs, the "historical"
//! versions carry the 53 studied failures). Each bug has a [`Trigger`]
//! predicate; once it fires, the bug's [`Effect`] corrupts the simulated
//! DFS's load-balancing behaviour persistently — the system cannot return
//! to a balanced state on its own, which is exactly the paper's definition
//! of an imbalance failure (Section 2.2).

pub mod catalog;
pub mod trigger;

pub use trigger::{Metric, SimEvent, Trigger};

use crate::flavor::Flavor;
use crate::types::{NodeId, SimTime};

/// Failure type taxonomy from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Uneven data distribution across storage nodes ("hotspots").
    ImbalancedStorage,
    /// Uneven CPU usage across management nodes.
    ImbalancedCpu,
    /// Uneven request/network handling across management nodes.
    ImbalancedNetwork,
    /// Node crash that the cluster cannot recover from.
    Crash,
    /// Data loss caused by the balancing mechanism.
    DataLoss,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::ImbalancedStorage => write!(f, "Imbalanced Storage"),
            FailureKind::ImbalancedCpu => write!(f, "Imbalanced CPU"),
            FailureKind::ImbalancedNetwork => write!(f, "Imbalanced Network"),
            FailureKind::Crash => write!(f, "Crash"),
            FailureKind::DataLoss => write!(f, "Data Loss"),
        }
    }
}

/// Environment gate for failures this testbed cannot reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Reproducible on this (Linux-like) testbed.
    None,
    /// Occurs only on Windows (CephFS #41935, HDFS #4261).
    WindowsOnly,
    /// Requires specific hardware faults (HDD/SSD mix, encryption units).
    HardwareFault,
}

/// How a triggered bug corrupts the simulated DFS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// New data placement funnels `pct`% of writes onto the victim node,
    /// and the same wrong calculation keeps the migration planner from
    /// draining it — the node becomes a growing hotspot.
    HotspotPlacement {
        /// Percentage of new placements redirected.
        pct: u8,
    },
    /// The migration planner silently drops moves whose source is the most
    /// loaded node, so rebalancing never drains the hotspot.
    SkipMigrationFromHot,
    /// Migration deletes the moved replica instead of storing it at the
    /// destination (the GlusterFS linkfile-unlink data-loss path).
    DeleteMigratedData {
        /// Percentage of moved bytes lost per migration.
        pct: u8,
    },
    /// The victim management node's CPU is spun by a hot loop.
    CpuSpin,
    /// All client requests are routed to the victim management node.
    NetFunnel,
    /// `count` storage nodes crash and stay down.
    CrashNodes {
        /// Number of nodes crashed.
        count: u8,
    },
    /// The rebalance API reports success without moving any data.
    MisreportRebalance,
    /// No behavioural effect; used by trigger-calibration harnesses to
    /// measure reachability without corrupting the system under test.
    Inert,
}

/// Static description of one latent failure.
#[derive(Debug, Clone)]
pub struct BugSpec {
    /// Tracker-style identifier (e.g. `Bug#S24387`).
    pub id: &'static str,
    /// The DFS the bug lives in.
    pub platform: Flavor,
    /// Failure type.
    pub kind: FailureKind,
    /// One-line root-cause description.
    pub title: &'static str,
    /// Firing condition.
    pub trigger: Trigger,
    /// Behavioural corruption once fired.
    pub effect: Effect,
    /// Environment gate.
    pub gate: Gate,
    /// Whether this is one of the 10 previously unknown failures (Table 2)
    /// as opposed to the 53 historical study failures (Table 1).
    pub is_new: bool,
}

impl BugSpec {
    /// Whether the bug can fire on this testbed at all.
    pub fn reproducible(&self) -> bool {
        self.gate == Gate::None
    }
}

/// Runtime state of one armed bug.
#[derive(Debug, Clone)]
pub struct BugRuntime {
    /// The spec.
    pub spec: BugSpec,
    /// Live trigger state (cloned from the spec at arm time).
    trigger: Trigger,
    /// When the bug fired, if it has.
    pub triggered_at: Option<SimTime>,
    /// Node chosen as the effect's victim at fire time.
    pub victim: Option<NodeId>,
}

/// The set of armed bugs for one simulator instance, fed every event.
#[derive(Debug, Clone, Default)]
pub struct BugEngine {
    bugs: Vec<BugRuntime>,
}

impl BugEngine {
    /// Arms the given bug specs.
    pub fn new(specs: Vec<BugSpec>) -> Self {
        let bugs = specs
            .into_iter()
            .map(|spec| BugRuntime {
                trigger: spec.trigger.clone(),
                spec,
                triggered_at: None,
                victim: None,
            })
            .collect();
        BugEngine { bugs }
    }

    /// Feeds an event to every armed, not-yet-fired, reproducible bug.
    ///
    /// Returns the indices of bugs that fired on this event; the caller
    /// (the simulator) then assigns victims via [`BugEngine::set_victim`].
    pub fn observe(&mut self, now: SimTime, ev: &SimEvent) -> Vec<usize> {
        let mut fired = Vec::new();
        for (i, bug) in self.bugs.iter_mut().enumerate() {
            if bug.triggered_at.is_none() && bug.spec.reproducible() && bug.trigger.observe(now, ev)
            {
                bug.triggered_at = Some(now);
                fired.push(i);
            }
        }
        fired
    }

    /// Assigns the victim node for a fired bug.
    pub fn set_victim(&mut self, idx: usize, victim: NodeId) {
        self.bugs[idx].victim = Some(victim);
    }

    /// All armed bugs.
    pub fn bugs(&self) -> &[BugRuntime] {
        &self.bugs
    }

    /// Effects of all fired bugs, with their victims.
    pub fn active_effects(&self) -> impl Iterator<Item = (&BugSpec, Option<NodeId>)> {
        self.bugs
            .iter()
            .filter(|b| b.triggered_at.is_some())
            .map(|b| (&b.spec, b.victim))
    }

    /// Whether any fired bug has the given effect discriminant active.
    pub fn any_active(&self, pred: impl Fn(&Effect) -> bool) -> bool {
        self.active_effects().any(|(s, _)| pred(&s.effect))
    }

    /// Ids of fired bugs (the simulator's ground-truth oracle).
    pub fn triggered_ids(&self) -> Vec<&'static str> {
        self.bugs
            .iter()
            .filter(|b| b.triggered_at.is_some())
            .map(|b| b.spec.id)
            .collect()
    }

    /// Re-arms every bug: triggers and fire state reset (used when the
    /// campaign resets the DFS to its initial state).
    pub fn rearm(&mut self) {
        for bug in &mut self.bugs {
            bug.trigger = bug.spec.trigger.clone();
            bug.triggered_at = None;
            bug.victim = None;
        }
    }

    /// Number of armed bugs.
    pub fn len(&self) -> usize {
        self.bugs.len()
    }

    /// Whether no bugs are armed.
    pub fn is_empty(&self) -> bool {
        self.bugs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::OpClass;

    fn spec(id: &'static str, trigger: Trigger, gate: Gate) -> BugSpec {
        BugSpec {
            id,
            platform: Flavor::Hdfs,
            kind: FailureKind::ImbalancedStorage,
            title: "test bug",
            trigger,
            effect: Effect::SkipMigrationFromHot,
            gate,
            is_new: true,
        }
    }

    fn op_event() -> SimEvent {
        SimEvent::Op {
            class: OpClass::Create,
            ok: true,
            size: 0,
        }
    }

    #[test]
    fn engine_fires_and_reports_oracle() {
        let mut eng = BugEngine::new(vec![spec(
            "B1",
            Trigger::subseq(vec![OpClass::Create], 4),
            Gate::None,
        )]);
        assert!(eng.triggered_ids().is_empty());
        let fired = eng.observe(SimTime(5), &op_event());
        assert_eq!(fired, vec![0]);
        eng.set_victim(0, NodeId(3));
        assert_eq!(eng.triggered_ids(), vec!["B1"]);
        let active: Vec<_> = eng.active_effects().collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].1, Some(NodeId(3)));
    }

    #[test]
    fn fired_bugs_do_not_refire() {
        let mut eng = BugEngine::new(vec![spec(
            "B1",
            Trigger::subseq(vec![OpClass::Create], 4),
            Gate::None,
        )]);
        assert_eq!(eng.observe(SimTime(1), &op_event()), vec![0]);
        assert!(eng.observe(SimTime(2), &op_event()).is_empty());
    }

    #[test]
    fn gated_bugs_never_fire() {
        let mut eng = BugEngine::new(vec![spec(
            "W1",
            Trigger::subseq(vec![OpClass::Create], 4),
            Gate::WindowsOnly,
        )]);
        for _ in 0..10 {
            assert!(eng.observe(SimTime(1), &op_event()).is_empty());
        }
        assert!(eng.triggered_ids().is_empty());
    }

    #[test]
    fn rearm_resets_everything() {
        let mut eng = BugEngine::new(vec![spec(
            "B1",
            Trigger::subseq(vec![OpClass::Create], 4),
            Gate::None,
        )]);
        eng.observe(SimTime(1), &op_event());
        assert_eq!(eng.triggered_ids().len(), 1);
        eng.rearm();
        assert!(eng.triggered_ids().is_empty());
        // Fires again after rearm.
        assert_eq!(eng.observe(SimTime(2), &op_event()), vec![0]);
    }

    #[test]
    fn any_active_matches_effect() {
        let mut eng = BugEngine::new(vec![spec(
            "B1",
            Trigger::subseq(vec![OpClass::Create], 4),
            Gate::None,
        )]);
        assert!(!eng.any_active(|e| matches!(e, Effect::SkipMigrationFromHot)));
        eng.observe(SimTime(1), &op_event());
        assert!(eng.any_active(|e| matches!(e, Effect::SkipMigrationFromHot)));
        assert!(!eng.any_active(|e| matches!(e, Effect::CpuSpin)));
    }

    #[test]
    fn failure_kind_display() {
        assert_eq!(FailureKind::DataLoss.to_string(), "Data Loss");
        assert_eq!(FailureKind::ImbalancedCpu.to_string(), "Imbalanced CPU");
    }
}
