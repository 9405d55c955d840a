//! Rewinding the simulator through journal marks, of which mark 0 is the
//! deployed state, and the state audit that guards every rewind.

use super::{DfsSim, SimStats};
use crate::balancer::Balancer;
use crate::bugs::BugEngine;
use crate::clock::{PeriodicTimer, SimClock};
use crate::cluster::{ClusterCheckpoint, FileTableUsage};
use crate::crash::CrashRuntime;
use crate::faults::FaultInjector;
use crate::namespace::NsCheckpoint;
use crate::types::{NodeId, SimTime};
use std::collections::BTreeMap;

/// One rewind mark.
///
/// The two big collections (namespace arena, physical file map) are
/// captured as positions in their first-touch undo journals (see
/// [`crate::journal`]), while everything small (clock, balancer, bug
/// runtimes, fault state, timers) is cloned outright. Coverage is
/// deliberately absent: it is a monotone set of idempotent insertions
/// over deterministic re-execution, so rewinding state and replaying a
/// prefix can only re-insert branches already present.
#[derive(Debug)]
pub(super) struct SimSnapshot {
    id: u64,
    clock: SimClock,
    ns: NsCheckpoint,
    cluster: ClusterCheckpoint,
    balancer: Balancer,
    bugs: BugEngine,
    faults: FaultInjector,
    hash_cache: BTreeMap<u64, SimTime>,
    crashed: Vec<NodeId>,
    stats: SimStats,
    last_variance: (f64, f64, f64),
    prev_kind: Option<u64>,
    prev2_kind: Option<u64>,
    rr_counter: u64,
    check_timer: Option<PeriodicTimer>,
    migrate_timer: PeriodicTimer,
    crash: CrashRuntime,
}

impl DfsSim {
    /// Turns the automatic post-restore state audit on or off at runtime.
    /// Debug builds default to on; release builds default to off so
    /// hot-path campaigns keep their throughput, and the crash explorer
    /// (or any caller that wants the release-mode oracle) opts in.
    pub fn set_runtime_audit(&mut self, on: bool) {
        self.runtime_audit = on;
    }

    /// Whether the automatic post-restore audit is currently enabled.
    pub fn runtime_audit_enabled(&self) -> bool {
        self.runtime_audit
    }

    /// Resets the DFS to its deployed state: mark 0's namespace and
    /// topology, re-armed bugs, cleared caches, and no fork marks.
    /// Coverage and cumulative statistics survive (as they do across DFS
    /// restarts in the paper's campaigns), the virtual clock keeps
    /// running, and the fault injector carries on, so machine damage
    /// outlives the redeploy.
    pub fn reset(&mut self) {
        let clock = self.clock.clone();
        let stats = self.stats;
        let faults = std::mem::take(&mut self.faults);
        self.rewind(0);
        self.clock = clock;
        self.stats = stats;
        self.faults = faults;
        self.apply_machine_damage();
        let now = self.clock.now();
        if let Some(t) = self.check_timer.as_mut() {
            t.reset(now);
        }
        self.migrate_timer.reset(now);
        self.stats.resets += 1;
        // Resetting costs real wall time on a cluster (container restarts);
        // charge one minute of virtual time.
        self.clock.advance(60_000);
    }

    /// Re-applies the damage a redeploy cannot repair because it lives in
    /// the machines, not in DFS process state: fault-crashed hosts stay
    /// down and forced-full disks stay full. Slow-node, partition and loss
    /// state lives in the injector and persists on its own. Faults
    /// attached to nodes that only existed after deploy are re-targeted
    /// onto the restored pool (same machines, fresh ids).
    fn apply_machine_damage(&mut self) {
        if self.faults.any() {
            let mgmt: Vec<NodeId> = self.cluster.mgmt.keys().copied().collect();
            let storage: Vec<NodeId> = self.cluster.storage.keys().copied().collect();
            self.faults.remap_nodes(&mgmt, &storage);
        }
        for id in self.faults.crashed().to_vec() {
            self.cluster.set_offline(id);
            self.crashed.push(id);
        }
        for id in self.faults.disk_full().to_vec() {
            self.cluster.set_volumes_full(id);
        }
    }

    /// Marks the current execution point so it can be returned to with
    /// [`DfsSim::restore`]. Returns an id that stays valid until the mark
    /// is restored past, [`DfsSim::release`]d, or the sim is reset.
    /// Marks form a stack along one lineage: restoring mark `a` kills
    /// every mark taken after `a`.
    pub fn fork(&mut self) -> u64 {
        let id = self.next_mark_id;
        self.next_mark_id += 1;
        self.marks.push(SimSnapshot {
            id,
            clock: self.clock.clone(),
            ns: self.ns.checkpoint(),
            cluster: self.cluster.checkpoint(),
            balancer: self.balancer.clone(),
            bugs: self.bugs.clone(),
            faults: self.faults.clone(),
            hash_cache: self.hash_cache.clone(),
            crashed: self.crashed.clone(),
            stats: self.stats,
            last_variance: self.last_variance,
            prev_kind: self.prev_kind,
            prev2_kind: self.prev2_kind,
            rr_counter: self.rr_counter,
            check_timer: self.check_timer.clone(),
            migrate_timer: self.migrate_timer.clone(),
            crash: self.crash.clone(),
        });
        id
    }

    /// Rewinds the simulator to a mark taken by [`DfsSim::fork`]. Returns
    /// `false` (leaving the sim untouched) if the mark no longer exists —
    /// restored past, released, or invalidated by a reset.
    ///
    /// Coverage intentionally survives: it is monotone over deterministic
    /// replay, so the combined fork/restore walk observes exactly the
    /// branch set a straight-line run of the same cases would.
    pub fn restore(&mut self, id: u64) -> bool {
        let Some(pos) = self.fork_position(id) else {
            return false;
        };
        self.rewind(pos);
        true
    }

    /// Position of the live fork mark `id` in `marks` (never mark 0).
    fn fork_position(&self, id: u64) -> Option<usize> {
        self.marks
            .iter()
            .rposition(|m| m.id == id)
            .filter(|&pos| pos > 0)
    }

    /// Rewinds everything but coverage to `marks[pos]` and drops every
    /// deeper mark.
    ///
    /// Everything flows backwards: the namespace and file-map journals are
    /// unwound to the mark, the small cloned state (clock, balancer, bug
    /// runtimes, fault state, timers) is copied back, and placement rings
    /// built for generations newer than the mark are dropped — a divergent
    /// suffix re-uses those generation numbers for different topologies,
    /// so only strictly-older entries are provably shared lineage.
    fn rewind(&mut self, pos: usize) {
        self.marks.truncate(pos + 1);
        let snap = &self.marks[pos];
        self.ns.revert_to(&snap.ns);
        self.cluster.restore_to(&snap.cluster);
        self.clock = snap.clock.clone();
        self.balancer.clone_from(&snap.balancer);
        self.bugs.clone_from(&snap.bugs);
        self.faults.clone_from(&snap.faults);
        self.hash_cache.clone_from(&snap.hash_cache);
        self.crashed.clone_from(&snap.crashed);
        self.stats = snap.stats;
        self.last_variance = snap.last_variance;
        self.prev_kind = snap.prev_kind;
        self.prev2_kind = snap.prev2_kind;
        self.rr_counter = snap.rr_counter;
        self.check_timer.clone_from(&snap.check_timer);
        self.migrate_timer.clone_from(&snap.migrate_timer);
        self.crash.clone_from(&snap.crash);
        self.placement_cache
            .invalidate_if_newer_than(snap.cluster.generation());
        // Guard the undo log: a rewind must land on exactly the state the
        // incremental counters claim, re-deriving the accounting from first
        // principles (file table, volume ownership, load-counter sanity)
        // and aborting on drift rather than letting a corrupted baseline
        // silently skew every campaign that follows. Debug builds always
        // run it; release builds opt in through
        // [`DfsSim::set_runtime_audit`] (the crash explorer does).
        if self.runtime_audit {
            if let Err(e) = self.audit_state() {
                panic!(
                    "state audit failed after rewinding to mark {}: {e}",
                    snap.id
                );
            }
        }
    }

    /// First-principles consistency audit of the simulator state.
    ///
    /// Delegates the storage accounting to [`crate::Cluster::audit`]
    /// (per-volume byte totals recomputed from the file table) and also
    /// checks the CPU/network side: every decaying load counter must hold a
    /// finite, non-negative value whose last-update stamp does not lie in
    /// the simulated future. The rate counters are event-sourced and lazily
    /// decayed, so there is no independent ledger to resum them from — but
    /// a journal-rewind bug shows up here as a stale `last` stamp ahead of
    /// the restored clock or as a NaN/negative accumulator.
    ///
    /// Debug builds invoke this automatically after every rewind; it is
    /// also available to tests and tooling in any build.
    pub fn audit_state(&self) -> Result<(), String> {
        self.audit_state_with(&self.cluster.file_table_usage())
    }

    /// [`DfsSim::audit_state`] against a file-table pass the caller
    /// already made (the crash oracle shares its own).
    pub(super) fn audit_state_with(&self, usage: &FileTableUsage) -> Result<(), String> {
        self.cluster.audit_with(usage)?;
        let now = self.clock.now();
        fn check_rates(
            node: NodeId,
            load: &crate::metrics::NodeLoadAccount,
            now: SimTime,
        ) -> Result<(), String> {
            for (name, rate) in [
                ("cpu", &load.cpu),
                ("rps", &load.rps),
                ("read_io", &load.read_io),
                ("write_io", &load.write_io),
            ] {
                let v = rate.peek_raw();
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("node {node:?}: {name} counter is {v}"));
                }
                if rate.last_update() > now {
                    return Err(format!(
                        "node {node:?}: {name} counter last updated at {:?}, \
                         after the current instant {now:?}",
                        rate.last_update()
                    ));
                }
            }
            Ok(())
        }
        for (id, n) in &self.cluster.storage {
            check_rates(*id, &n.load, now)?;
        }
        for (id, n) in &self.cluster.mgmt {
            check_rates(*id, &n.load, now)?;
        }
        Ok(())
    }

    /// Drops a fork mark without restoring it. Mark 0 cannot be released.
    pub fn release(&mut self, id: u64) {
        if let Some(pos) = self.fork_position(id) {
            self.marks.remove(pos);
        }
    }

    /// Number of live fork marks, not counting mark 0 (diagnostics /
    /// tests).
    pub fn fork_count(&self) -> usize {
        self.marks.len() - 1
    }

    /// Takes mark 0 again at the current state, dropping every fork mark
    /// and all undo history: [`DfsSim::restore_to_base`] later rewinds to
    /// exactly this point, no matter what ran in between — including
    /// resets, which kill every fork mark.
    ///
    /// Deploy takes mark 0 itself. [`DfsSim::reset`] rewinds to mark 0
    /// too and then re-applies the fault injector's machine damage, so
    /// mark only a state without a fault plan.
    ///
    /// This is the entry point behind the grid executor's per-worker
    /// simulator pool: deploy once per (worker, flavor), restore to base
    /// between campaign cells instead of rebuilding the topology.
    pub fn mark_base(&mut self) {
        debug_assert!(!self.faults.any(), "mark_base with a fault plan installed");
        self.marks.clear();
        self.ns.clear_journal();
        self.cluster.clear_journal();
        self.fork();
        self.base_coverage.clone_from(&self.coverage);
    }

    /// Rewinds the simulator to mark 0 (see [`DfsSim::mark_base`]),
    /// byte-for-byte equivalent to a fresh deploy: deployed
    /// namespace/cluster, rearmed bugs, empty fault plan, base clock, base
    /// coverage and base statistics. Every live fork mark dies (the
    /// restored lineage is a new one).
    ///
    /// Unlike [`DfsSim::reset`] — which models an operator redeploying a
    /// live cluster (faults persist, the clock keeps running, coverage
    /// accumulates) — this models *reusing the process for an unrelated
    /// campaign*, so everything observable rewinds.
    pub fn restore_to_base(&mut self) {
        self.rewind(0);
        self.coverage.clone_from(&self.base_coverage);
    }
}
