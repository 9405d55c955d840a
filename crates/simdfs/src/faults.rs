//! Deterministic fault injection.
//!
//! Themis's premise is that imbalance failures emerge from *environment
//! changes* — node crashes, degraded disks, partitions — not only from
//! clean topology commands. A [`FaultPlan`] schedules such environment
//! faults on the virtual clock: every event carries an absolute virtual
//! time, node targets are resolved by rank over the online node set at
//! fire time, and all jitter derives from the plan seed via the fixed
//! [`crate::hashing::mix`] permutation. Two simulators driven with the
//! same `(seed, plan)` therefore observe bit-identical fault sequences,
//! which keeps whole fuzzing campaigns reproducible under fault load.
//!
//! Faults model the *environment*, not DFS process state: a crashed host
//! stays crashed across [`crate::DfsSim::reset`] (a redeploy does not fix
//! hardware), as do slow disks, full volumes, loss on the migration path
//! and network partitions, until the plan schedules a restart or a
//! [`FaultKind::Heal`].

use crate::hashing::mix;
use crate::types::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// One injectable environment fault.
///
/// Node-targeting variants carry a *rank*, not a node id: the target is
/// the `index % n`-th node (in id order) of the relevant online set when
/// the event fires. Plans thus stay valid across topologies while staying
/// fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Hard-crash the `index`-th online storage node (it stays down, even
    /// across resets, until restarted). A lone survivor is never crashed.
    CrashStorage {
        /// Rank into the online storage set.
        index: u32,
    },
    /// Restart the `index`-th fault-crashed storage node.
    RestartStorage {
        /// Rank into the fault-crashed list.
        index: u32,
    },
    /// The `index`-th online management node degrades: requests it serves
    /// cost `factor`× the latency and burn `factor`× the CPU.
    SlowMgmt {
        /// Rank into the online management set.
        index: u32,
        /// Latency/CPU multiplier (≥ 1).
        factor: u32,
    },
    /// The `index`-th online storage node degrades: migrations touching it
    /// only make progress every `factor`-th balancer step.
    SlowStorage {
        /// Rank into the online storage set.
        index: u32,
        /// Stall factor (≥ 1).
        factor: u32,
    },
    /// Every volume of the `index`-th online storage node reports full
    /// (free space collapses to zero; existing data stays readable).
    DiskFull {
        /// Rank into the online storage set.
        index: u32,
    },
    /// The migration path starts dropping `pct`% of every moved replica.
    LossyMigration {
        /// Percentage of migrated bytes lost (0–100).
        pct: u8,
    },
    /// The `index`-th online management node is partitioned away: it takes
    /// no client requests and drops out of the load monitor.
    PartitionMgmt {
        /// Rank into the online management set.
        index: u32,
    },
    /// The `index`-th online storage node is partitioned away from the
    /// management plane: no placements, migrations or monitoring reach it.
    PartitionStorage {
        /// Rank into the online storage set.
        index: u32,
    },
    /// All partitions heal and slow-node skews clear.
    Heal,
}

/// A fault scheduled at an absolute virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time (ms since simulator start) at which the fault fires.
    pub at_ms: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of environment faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Events in firing order (sorted by time on construction; ties keep
    /// their insertion order).
    pub events: Vec<FaultEvent>,
}

/// Jittered event time inside `[lo_min, hi_min)` minutes, derived from the
/// plan seed so equal seeds give equal schedules.
fn at(seed: u64, salt: u64, lo_min: u64, hi_min: u64) -> u64 {
    lo_min * 60_000 + mix(seed, salt) % ((hi_min - lo_min) * 60_000)
}

impl FaultPlan {
    /// Builds a plan, sorting events into firing order (stable, so
    /// same-instant events keep their authored order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_ms);
        FaultPlan { events }
    }

    /// The named fault profiles, in fixed sweep order ("none" first).
    pub fn profiles() -> &'static [&'static str] {
        &[
            "none",
            "crash",
            "flap",
            "slow",
            "lossy",
            "diskfull",
            "partition",
            "chaos",
        ]
    }

    /// A named profile with seed-jittered timing and targets; `None` for
    /// an unknown name. `named("none", _)` is the empty plan.
    pub fn named(profile: &str, seed: u64) -> Option<FaultPlan> {
        let idx = |salt: u64| (mix(seed, salt) % 64) as u32;
        let ev = |at_ms: u64, kind: FaultKind| FaultEvent { at_ms, kind };
        let plan = match profile {
            "none" => Vec::new(),
            // One storage host dies and stays dead.
            "crash" => vec![ev(
                at(seed, 0xc4a5, 20, 40),
                FaultKind::CrashStorage { index: idx(1) },
            )],
            // A storage host dies, then comes back half an hour later.
            "flap" => {
                let t = at(seed, 0xf1a9, 15, 30);
                vec![
                    ev(t, FaultKind::CrashStorage { index: idx(2) }),
                    ev(t + 30 * 60_000, FaultKind::RestartStorage { index: 0 }),
                ]
            }
            // One gateway degrades to 6× latency/CPU per request.
            "slow" => vec![ev(
                at(seed, 0x510e, 10, 25),
                FaultKind::SlowMgmt {
                    index: idx(3),
                    factor: 6,
                },
            )],
            // The migration path starts losing 40% of moved bytes.
            "lossy" => vec![ev(
                at(seed, 0x1055, 5, 15),
                FaultKind::LossyMigration { pct: 40 },
            )],
            // One storage host's volumes fill up.
            "diskfull" => vec![ev(
                at(seed, 0xd15c, 20, 40),
                FaultKind::DiskFull { index: idx(4) },
            )],
            // A transient gateway partition that heals 45 minutes later —
            // the detector must not confirm anything off the flap alone.
            "partition" => {
                let t = at(seed, 0x9a27, 15, 30);
                vec![
                    ev(t, FaultKind::PartitionMgmt { index: idx(5) }),
                    ev(t + 45 * 60_000, FaultKind::Heal),
                ]
            }
            // Everything at once, staggered.
            "chaos" => {
                let t_part = at(seed, 0xc405, 30, 50);
                vec![
                    ev(
                        at(seed, 0xc401, 5, 15),
                        FaultKind::LossyMigration { pct: 25 },
                    ),
                    ev(
                        at(seed, 0xc402, 10, 25),
                        FaultKind::SlowMgmt {
                            index: idx(6),
                            factor: 6,
                        },
                    ),
                    ev(
                        at(seed, 0xc403, 20, 40),
                        FaultKind::CrashStorage { index: idx(7) },
                    ),
                    ev(t_part, FaultKind::PartitionStorage { index: idx(8) }),
                    ev(t_part + 30 * 60_000, FaultKind::Heal),
                ]
            }
            _ => return None,
        };
        Some(FaultPlan::new(plan))
    }
}

/// Runtime fault state held by the simulator: the plan cursor plus the
/// currently active environment degradations. The simulator applies due
/// events from its single clock-advance point and consults the active
/// state on every routing, migration and monitoring decision.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    /// Fault-crashed nodes (persist across resets until restarted).
    crashed: Vec<NodeId>,
    /// Nodes whose volumes were forced full (re-applied after resets).
    disk_full: Vec<NodeId>,
    slow_mgmt: BTreeMap<NodeId, u32>,
    slow_storage: BTreeMap<NodeId, u32>,
    /// Slow-machine factor whose node left the cluster: the bad host goes
    /// back to the provisioning pool and the next node added in the same
    /// role lands on it — machine faults outlive DFS membership.
    slow_mgmt_orphan: Option<u32>,
    slow_storage_orphan: Option<u32>,
    partitioned: BTreeSet<NodeId>,
    loss_pct: u8,
    /// Global stall counter for slow-storage migration deferral.
    defer_counter: u64,
}

impl FaultInjector {
    /// Installs a plan, clearing the cursor and all active fault state.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        *self = FaultInjector {
            plan,
            ..FaultInjector::default()
        };
    }

    /// Pops the next event due at or before `now_ms`, if any.
    pub fn next_due(&mut self, now_ms: u64) -> Option<FaultKind> {
        let ev = self.plan.events.get(self.cursor)?;
        if ev.at_ms > now_ms {
            return None;
        }
        self.cursor += 1;
        Some(ev.kind)
    }

    /// Whether any fault is scheduled or active (fast gate for hot paths).
    pub fn any(&self) -> bool {
        !self.plan.events.is_empty()
            || !self.crashed.is_empty()
            || !self.disk_full.is_empty()
            || !self.slow_mgmt.is_empty()
            || !self.slow_storage.is_empty()
            || self.slow_mgmt_orphan.is_some()
            || self.slow_storage_orphan.is_some()
            || !self.partitioned.is_empty()
            || self.loss_pct > 0
    }

    /// Records a fault crash (the node stays down across resets).
    pub fn note_crashed(&mut self, id: NodeId) {
        self.crashed.push(id);
    }

    /// Takes the `index`-th fault-crashed node for a restart, if any.
    pub fn take_crashed(&mut self, index: u32) -> Option<NodeId> {
        if self.crashed.is_empty() {
            return None;
        }
        let i = index as usize % self.crashed.len();
        Some(self.crashed.remove(i))
    }

    /// Fault-crashed nodes (re-crashed on reset).
    pub fn crashed(&self) -> &[NodeId] {
        &self.crashed
    }

    /// Records a disk-full node (re-applied on reset).
    pub fn note_disk_full(&mut self, id: NodeId) {
        if !self.disk_full.contains(&id) {
            self.disk_full.push(id);
        }
    }

    /// Nodes whose volumes were forced full.
    pub fn disk_full(&self) -> &[NodeId] {
        &self.disk_full
    }

    /// Marks a management node slow.
    pub fn set_slow_mgmt(&mut self, id: NodeId, factor: u32) {
        self.slow_mgmt.insert(id, factor.max(1));
    }

    /// Marks a storage node slow.
    pub fn set_slow_storage(&mut self, id: NodeId, factor: u32) {
        self.slow_storage.insert(id, factor.max(1));
    }

    /// Latency/CPU multiplier for a management node (1 when healthy).
    pub fn slow_mgmt_factor(&self, id: NodeId) -> u32 {
        self.slow_mgmt.get(&id).copied().unwrap_or(1)
    }

    /// Migration stall factor for a storage node (1 when healthy).
    pub fn slow_storage_factor(&self, id: NodeId) -> u32 {
        self.slow_storage.get(&id).copied().unwrap_or(1)
    }

    /// Notes that management node `id` left the cluster. If it was the
    /// slow machine, the host returns to the provisioning pool and the
    /// next management node added lands on it (see
    /// [`FaultInjector::mgmt_added`]) — removing the process does not fix
    /// the machine.
    pub fn mgmt_removed(&mut self, id: NodeId) {
        if let Some(f) = self.slow_mgmt.remove(&id) {
            self.slow_mgmt_orphan = Some(f);
        }
        self.partitioned.remove(&id);
    }

    /// Notes that a new management node joined; it inherits the orphaned
    /// slow machine, if one is waiting in the pool.
    pub fn mgmt_added(&mut self, id: NodeId) {
        if let Some(f) = self.slow_mgmt_orphan.take() {
            self.slow_mgmt.insert(id, f);
        }
    }

    /// Notes that storage node `id` left the cluster (slow-host pool
    /// semantics as for [`FaultInjector::mgmt_removed`]).
    pub fn storage_removed(&mut self, id: NodeId) {
        if let Some(f) = self.slow_storage.remove(&id) {
            self.slow_storage_orphan = Some(f);
        }
        self.partitioned.remove(&id);
        self.disk_full.retain(|n| *n != id);
    }

    /// Notes that a new storage node joined; it inherits the orphaned
    /// slow machine, if one is waiting in the pool.
    pub fn storage_added(&mut self, id: NodeId) {
        if let Some(f) = self.slow_storage_orphan.take() {
            self.slow_storage.insert(id, f);
        }
    }

    /// Re-targets fault state after a redeploy restored the deployed
    /// topology: the same machine pool hosts the fresh nodes, so machine
    /// faults attached to nodes that no longer exist are re-assigned to
    /// restored nodes of the same role (in id order, skipping hosts that
    /// already carry the same fault). Partitions referencing vanished
    /// hosts are dropped — the hosts they isolated are gone.
    pub fn remap_nodes(&mut self, mgmt: &[NodeId], storage: &[NodeId]) {
        fn retarget_list(ids: &mut [NodeId], pool: &[NodeId]) {
            let mut taken: BTreeSet<NodeId> =
                ids.iter().filter(|id| pool.contains(id)).copied().collect();
            for id in ids.iter_mut() {
                if !pool.contains(id) {
                    if let Some(n) = pool.iter().find(|n| !taken.contains(n)) {
                        *id = *n;
                        taken.insert(*n);
                    }
                }
            }
        }
        fn retarget_map(map: &mut BTreeMap<NodeId, u32>, pool: &[NodeId]) {
            let missing: Vec<NodeId> = map
                .keys()
                .filter(|id| !pool.contains(id))
                .copied()
                .collect();
            for id in missing {
                let f = map.remove(&id).expect("key present");
                if let Some(n) = pool.iter().find(|n| !map.contains_key(n)) {
                    map.insert(*n, f);
                }
            }
        }
        retarget_list(&mut self.crashed, storage);
        retarget_list(&mut self.disk_full, storage);
        retarget_map(&mut self.slow_mgmt, mgmt);
        retarget_map(&mut self.slow_storage, storage);
        self.partitioned
            .retain(|id| mgmt.contains(id) || storage.contains(id));
    }

    /// Counts a migration attempt against a stall factor; `true` means the
    /// move may execute this step, `false` that it is deferred.
    pub fn defer_tick(&mut self, factor: u32) -> bool {
        self.defer_counter += 1;
        self.defer_counter.is_multiple_of(factor.max(1) as u64)
    }

    /// Sets the migration loss percentage.
    pub fn set_loss(&mut self, pct: u8) {
        self.loss_pct = pct.min(100);
    }

    /// Active migration loss percentage (0 when healthy).
    pub fn loss_pct(&self) -> u8 {
        self.loss_pct
    }

    /// Partitions a node away from the management plane.
    pub fn partition(&mut self, id: NodeId) {
        self.partitioned.insert(id);
    }

    /// Whether any partition is active (fast gate).
    pub fn has_partitions(&self) -> bool {
        !self.partitioned.is_empty()
    }

    /// Whether `id` is currently partitioned away.
    pub fn is_partitioned(&self, id: NodeId) -> bool {
        !self.partitioned.is_empty() && self.partitioned.contains(&id)
    }

    /// Currently partitioned nodes, in id order.
    pub fn partitioned_nodes(&self) -> Vec<NodeId> {
        self.partitioned.iter().copied().collect()
    }

    /// Heals all partitions and clears slow-node skews (including slow
    /// machines waiting in the provisioning pool).
    pub fn heal(&mut self) {
        self.partitioned.clear();
        self.slow_mgmt.clear();
        self.slow_storage.clear();
        self.slow_mgmt_orphan = None;
        self.slow_storage_orphan = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_are_deterministic() {
        for p in FaultPlan::profiles() {
            let a = FaultPlan::named(p, 42).unwrap();
            let b = FaultPlan::named(p, 42).unwrap();
            assert_eq!(a, b, "profile {p} must be a pure function of seed");
        }
        assert!(FaultPlan::named("no_such_profile", 1).is_none());
    }

    #[test]
    fn seeds_jitter_the_schedule() {
        let a = FaultPlan::named("crash", 1).unwrap();
        let b = FaultPlan::named("crash", 2).unwrap();
        assert_ne!(a, b, "different seeds should give different timing");
    }

    #[test]
    fn plans_are_sorted_by_time() {
        for p in FaultPlan::profiles() {
            let plan = FaultPlan::named(p, 7).unwrap();
            for w in plan.events.windows(2) {
                assert!(w[0].at_ms <= w[1].at_ms);
            }
        }
    }

    #[test]
    fn injector_pops_due_events_in_order() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at_ms: 2_000,
                kind: FaultKind::Heal,
            },
            FaultEvent {
                at_ms: 1_000,
                kind: FaultKind::LossyMigration { pct: 10 },
            },
        ]);
        let mut inj = FaultInjector::default();
        inj.set_plan(plan);
        assert_eq!(inj.next_due(500), None);
        assert_eq!(
            inj.next_due(1_500),
            Some(FaultKind::LossyMigration { pct: 10 })
        );
        assert_eq!(inj.next_due(1_500), None);
        assert_eq!(inj.next_due(5_000), Some(FaultKind::Heal));
        assert_eq!(inj.next_due(u64::MAX), None);
    }

    #[test]
    fn heal_clears_partitions_and_skews() {
        let mut inj = FaultInjector::default();
        inj.partition(NodeId(3));
        inj.set_slow_mgmt(NodeId(1), 6);
        inj.set_slow_storage(NodeId(2), 4);
        assert!(inj.is_partitioned(NodeId(3)));
        assert_eq!(inj.slow_mgmt_factor(NodeId(1)), 6);
        inj.heal();
        assert!(!inj.has_partitions());
        assert_eq!(inj.slow_mgmt_factor(NodeId(1)), 1);
        assert_eq!(inj.slow_storage_factor(NodeId(2)), 1);
    }

    #[test]
    fn defer_tick_executes_every_nth_attempt() {
        let mut inj = FaultInjector::default();
        let fired: Vec<bool> = (0..6).map(|_| inj.defer_tick(3)).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn crashed_list_supports_restart_by_rank() {
        let mut inj = FaultInjector::default();
        inj.note_crashed(NodeId(5));
        inj.note_crashed(NodeId(9));
        assert_eq!(inj.take_crashed(1), Some(NodeId(9)));
        assert_eq!(inj.crashed(), &[NodeId(5)]);
        assert_eq!(inj.take_crashed(7), Some(NodeId(5)));
        assert_eq!(inj.take_crashed(0), None);
    }

    #[test]
    fn slow_host_follows_membership_churn() {
        // Removing the process on a slow machine does not fix the machine:
        // the host returns to the pool and the next node added lands on it.
        let mut inj = FaultInjector::default();
        inj.set_slow_mgmt(NodeId(1), 6);
        inj.mgmt_removed(NodeId(1));
        assert_eq!(inj.slow_mgmt_factor(NodeId(1)), 1);
        assert!(inj.any(), "orphaned slow host still counts as a fault");
        inj.mgmt_added(NodeId(9));
        assert_eq!(inj.slow_mgmt_factor(NodeId(9)), 6);

        inj.set_slow_storage(NodeId(4), 3);
        inj.storage_removed(NodeId(4));
        inj.storage_added(NodeId(12));
        assert_eq!(inj.slow_storage_factor(NodeId(12)), 3);

        // Heal also drains the pool.
        inj.mgmt_removed(NodeId(9));
        inj.heal();
        inj.mgmt_added(NodeId(20));
        assert_eq!(inj.slow_mgmt_factor(NodeId(20)), 1);
    }

    #[test]
    fn remap_retargets_dangling_fault_state() {
        let mut inj = FaultInjector::default();
        inj.set_slow_mgmt(NodeId(42), 4);
        inj.note_crashed(NodeId(77));
        inj.note_disk_full(NodeId(78));
        inj.partition(NodeId(88));
        inj.remap_nodes(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        // Machine faults land on restored nodes of the same role, in id
        // order; the partition of a vanished host is dropped.
        assert_eq!(inj.slow_mgmt_factor(NodeId(0)), 4);
        assert_eq!(inj.crashed(), &[NodeId(2)]);
        assert_eq!(inj.disk_full(), &[NodeId(2)]);
        assert!(!inj.is_partitioned(NodeId(88)));
        assert!(!inj.has_partitions());
    }

    #[test]
    fn remap_keeps_still_valid_targets() {
        let mut inj = FaultInjector::default();
        inj.set_slow_mgmt(NodeId(1), 6);
        inj.note_crashed(NodeId(3));
        inj.partition(NodeId(1));
        inj.remap_nodes(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        assert_eq!(inj.slow_mgmt_factor(NodeId(1)), 6);
        assert_eq!(inj.crashed(), &[NodeId(3)]);
        assert!(inj.is_partitioned(NodeId(1)));
    }
}
