//! The Interaction Adaptor for simulated DFS flavors.
//!
//! [`SimAdaptor`] implements [`themis::DfsAdaptor`] over a shared
//! [`simdfs::DfsSim`]. Themis only ever sees the trait; the shared handle
//! exists so the *evaluation harness* (not Themis) can consult the
//! simulator's ground-truth bug oracle to attribute confirmed failures.

use crate::commands::render_command;
use simdfs::{
    BugSet, ClusterSnapshot, DfsRequest, DfsSim, Flavor, NodeRole, RebalanceStatus, SimError,
};
use std::cell::RefCell;
use std::rc::Rc;
use themis::adaptor::{
    AdaptorError, CrashExplorable, CrashOracleViolation, DfsAdaptor, LoadReport, NodeInventory,
    NodeLoad, Role, SnapshotCapable,
};
use themis::spec::{Operand, Operation, Operator};

/// A shared simulator handle.
pub type SimHandle = Rc<RefCell<DfsSim>>;

/// Client-side retry and timeout semantics for [`SimAdaptor::send`].
///
/// Real DFS clients do not give up on the first connection refusal: they
/// retry with backoff (surviving brief control-plane outages such as a
/// partition that later heals) and abandon requests that exceed a client
/// timeout. The defaults are chosen so a fault-free simulator never hits
/// either path: the costliest normal request is ~30.5 s, well under
/// `timeout_ms`, and `ClusterDown` cannot occur without faults or
/// node-removal operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failed send.
    pub max_retries: u32,
    /// Initial backoff between attempts (doubles per retry, virtual time).
    pub backoff_ms: u64,
    /// Client-side timeout: completed requests slower than this surface as
    /// rejected (the client hung up before the reply arrived).
    pub timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_ms: 5_000,
            timeout_ms: 120_000,
        }
    }
}

/// Adaptor binding Themis to one simulated DFS instance.
pub struct SimAdaptor {
    sim: SimHandle,
    /// Retry/backoff/timeout behavior applied by [`DfsAdaptor::send`].
    pub retry: RetryPolicy,
    /// Recently sent operations, oldest first (bounded ring). Commands are
    /// rendered on demand by [`SimAdaptor::command_log`] — rendering on
    /// every send would put string formatting on the campaign hot path.
    op_log: std::collections::VecDeque<Operation>,
    /// Cap on the retained command log (old entries are dropped). 0
    /// disables capture entirely, keeping the per-send operation clone off
    /// the hot path; campaign harnesses that never read the log use that.
    pub command_log_cap: usize,
    /// Reusable snapshot buffer for incremental load reporting.
    snap_buf: ClusterSnapshot,
}

impl SimAdaptor {
    /// Builds a fresh simulator for `flavor` with the given bug set and
    /// wraps it.
    pub fn new(flavor: Flavor, bugs: BugSet) -> Self {
        Self::from_handle(Rc::new(RefCell::new(DfsSim::new(flavor, bugs))))
    }

    /// Wraps an existing simulator handle.
    pub fn from_handle(sim: SimHandle) -> Self {
        SimAdaptor {
            sim,
            retry: RetryPolicy::default(),
            op_log: std::collections::VecDeque::new(),
            command_log_cap: 4096,
            snap_buf: ClusterSnapshot::default(),
        }
    }

    /// The rendered command log (what a real deployment would have
    /// executed), oldest first.
    pub fn command_log(&self) -> Vec<String> {
        let flavor = self.sim.borrow().flavor();
        self.op_log
            .iter()
            .map(|op| render_command(flavor, op))
            .collect()
    }

    /// The shared simulator handle (for harness-side oracle access).
    pub fn handle(&self) -> SimHandle {
        Rc::clone(&self.sim)
    }

    /// Marks the simulator's current state as the reusable base for
    /// cross-campaign reuse (see [`simdfs::DfsSim::mark_base`]). Call once
    /// right after construction, before any traffic or fault plan.
    pub fn mark_base(&mut self) {
        self.sim.borrow_mut().mark_base();
    }

    /// Rewinds the wrapped simulator to its base mark — byte-identical to
    /// a fresh deploy — and clears the adaptor's own per-campaign client
    /// state (command log; retry policy is left as configured). Always
    /// returns `true`: deploy takes the base mark, so one always exists.
    pub fn restore_to_base(&mut self) -> bool {
        self.sim.borrow_mut().restore_to_base();
        self.op_log.clear();
        true
    }

    /// Translates a Themis operation into a simulator request.
    ///
    /// Returns `None` for operations whose operands cannot be represented
    /// (e.g. a node id that is not a valid u32) — these are rejected like a
    /// malformed CLI invocation would be.
    fn translate(&self, op: &Operation) -> Option<DfsRequest> {
        let path = |i: usize| -> Option<String> {
            match op.opds.get(i) {
                Some(Operand::FileName(p)) => Some(p.clone()),
                _ => None,
            }
        };
        let size = |i: usize| -> Option<u64> {
            match op.opds.get(i) {
                Some(Operand::Size(s)) => Some(*s),
                _ => None,
            }
        };
        let node = |i: usize| -> Option<simdfs::NodeId> {
            match op.opds.get(i) {
                Some(Operand::NodeId(n)) => u32::try_from(*n).ok().map(simdfs::NodeId),
                _ => None,
            }
        };
        let volume = |i: usize| -> Option<simdfs::VolumeId> {
            match op.opds.get(i) {
                Some(Operand::VolumeId(v)) => u32::try_from(*v).ok().map(simdfs::VolumeId),
                _ => None,
            }
        };
        let volumes_per_node = self.sim.borrow().config().volumes_per_node;
        Some(match op.opt {
            Operator::Create => DfsRequest::Create {
                path: path(0)?,
                size: size(1)?,
            },
            Operator::Delete => DfsRequest::Delete { path: path(0)? },
            Operator::Append => DfsRequest::Append {
                path: path(0)?,
                delta: size(1)?,
            },
            Operator::Overwrite => DfsRequest::Overwrite {
                path: path(0)?,
                size: size(1)?,
            },
            Operator::Open => DfsRequest::Open { path: path(0)? },
            Operator::TruncateOverwrite => DfsRequest::TruncateOverwrite {
                path: path(0)?,
                size: size(1)?,
            },
            Operator::Mkdir => DfsRequest::Mkdir { path: path(0)? },
            Operator::Rmdir => DfsRequest::Rmdir { path: path(0)? },
            Operator::Rename => DfsRequest::Rename {
                from: path(0)?,
                to: path(1)?,
            },
            Operator::AddMn => DfsRequest::AddMgmtNode,
            Operator::RemoveMn => DfsRequest::RemoveMgmtNode { node: node(0)? },
            Operator::AddStorage => DfsRequest::AddStorageNode {
                volumes: volumes_per_node,
                capacity: size(0)?,
            },
            Operator::RemoveStorage => DfsRequest::RemoveStorageNode { node: node(0)? },
            Operator::AddVolume => DfsRequest::AddVolume {
                node: node(0)?,
                capacity: size(1)?,
            },
            Operator::RemoveVolume => DfsRequest::RemoveVolume { volume: volume(0)? },
            Operator::ExpandVolume => DfsRequest::ExpandVolume {
                volume: volume(0)?,
                delta: size(1)?,
            },
            Operator::ReduceVolume => DfsRequest::ReduceVolume {
                volume: volume(0)?,
                delta: size(1)?,
            },
        })
    }
}

impl DfsAdaptor for SimAdaptor {
    fn name(&self) -> String {
        let sim = self.sim.borrow();
        format!("{} {}", sim.flavor().name(), sim.flavor().version())
    }

    fn send(&mut self, op: &Operation) -> Result<(), AdaptorError> {
        if self.command_log_cap > 0 {
            while self.op_log.len() >= self.command_log_cap {
                self.op_log.pop_front();
            }
            self.op_log.push_back(op.clone());
        }
        let req = self
            .translate(op)
            .ok_or_else(|| AdaptorError::Rejected(format!("untranslatable operation: {op}")))?;
        let mut backoff = self.retry.backoff_ms.max(1);
        let mut attempts_left = self.retry.max_retries;
        loop {
            // Bind before matching: the scrutinee's RefCell guard would
            // otherwise live through the arms and conflict with `tick`.
            let outcome = self.sim.borrow_mut().execute(&req);
            match outcome {
                Ok(out) => {
                    // The request completed server-side, but a client that
                    // waited past its timeout already hung up: report it
                    // as rejected. Only slow-node faults push latency this
                    // high (normal worst case ~30.5 s < 120 s default).
                    return if out.latency_ms > self.retry.timeout_ms {
                        Err(AdaptorError::Rejected(format!(
                            "client timeout after {} ms",
                            out.latency_ms
                        )))
                    } else {
                        Ok(())
                    };
                }
                Err(SimError::ClusterDown) if attempts_left > 0 => {
                    // Back off on the virtual clock before retrying — this
                    // lets scheduled Heal/Restart fault events fire, so a
                    // transient outage is survived rather than reported.
                    attempts_left -= 1;
                    self.sim.borrow_mut().tick(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(SimError::ClusterDown) => {
                    return Err(AdaptorError::Down("cluster down".into()));
                }
                Err(e) => return Err(AdaptorError::Rejected(e.to_string())),
            }
        }
    }

    fn load_report(&mut self) -> LoadReport {
        let mut report = LoadReport::default();
        self.load_report_into(&mut report);
        report
    }

    fn load_report_into(&mut self, out: &mut LoadReport) {
        let mut sim = self.sim.borrow_mut();
        sim.load_snapshot_into(&mut self.snap_buf);
        let crashed = sim.crashed_nodes();
        out.time_ms = self.snap_buf.time.as_millis();
        out.nodes.clear();
        out.nodes
            .extend(self.snap_buf.nodes.iter().map(|n| NodeLoad {
                node: n.node.0 as u64,
                role: match n.role {
                    NodeRole::Management => Role::Management,
                    NodeRole::Storage => Role::Storage,
                },
                online: n.online,
                crashed: crashed.contains(&n.node),
                cpu: n.cpu,
                rps: n.rps,
                read_io: n.read_io,
                write_io: n.write_io,
                storage: n.storage,
                capacity: n.capacity,
                uptime_ms: n.uptime_ms,
            }));
    }

    fn rebalance(&mut self) {
        self.sim.borrow_mut().rebalance();
    }

    fn rebalance_done(&mut self) -> bool {
        self.sim.borrow().rebalance_status() == RebalanceStatus::Done
    }

    fn wait(&mut self, ms: u64) {
        self.sim.borrow_mut().tick(ms);
    }

    fn reset(&mut self) {
        self.sim.borrow_mut().reset();
    }

    fn coverage(&mut self) -> u64 {
        self.sim.borrow().coverage_count()
    }

    fn now_ms(&mut self) -> u64 {
        self.sim.borrow().now().as_millis()
    }

    fn inventory(&mut self) -> NodeInventory {
        let mut inv = self.topology();
        // `/sys` holds the deployment's pre-existing data; the tester's
        // FUSE mount only exposes its own test directory. The walk skips
        // that subtree outright — materializing thousands of preload paths
        // only to filter them back out dominated inventory cost. A tester's
        // own `/sysx` or `/sys2` is not the preload and stays visible.
        let (files, dirs) = self.sim.borrow().namespace().listing_excluding_top("sys");
        inv.files = files.into_iter().map(|(p, _, _)| p).collect();
        inv.dirs = dirs;
        inv
    }

    fn free_space(&mut self) -> u64 {
        self.sim.borrow().free_space()
    }

    fn topology(&mut self) -> NodeInventory {
        let sim = self.sim.borrow();
        let cluster = sim.cluster();
        let mut mgmt = Vec::new();
        let mut storage = Vec::new();
        for (id, role, online) in cluster.node_ids() {
            if !online {
                continue;
            }
            match role {
                NodeRole::Management => mgmt.push(id.0 as u64),
                NodeRole::Storage => storage.push(id.0 as u64),
            }
        }
        let mut volumes: Vec<u64> = cluster.volume_owner.keys().map(|v| v.0 as u64).collect();
        volumes.sort_unstable();
        NodeInventory {
            mgmt,
            storage,
            volumes,
            free_space: sim.free_space(),
            files: Vec::new(),
            dirs: Vec::new(),
        }
    }

    fn snapshots(&mut self) -> Option<&mut dyn SnapshotCapable> {
        Some(self)
    }

    fn crash_points(&mut self) -> Option<&mut dyn CrashExplorable> {
        Some(self)
    }
}

/// Crash-point instrumentation over the simulator's migration pipeline
/// (see `simdfs::crash`). Labels and indices are deterministic, so the
/// explorer's enumerate-then-crash replays line up exactly.
impl CrashExplorable for SimAdaptor {
    fn arm_enumeration(&mut self) {
        self.sim.borrow_mut().arm_crash_enumeration();
    }

    fn arm_crash_at(&mut self, k: u64) {
        self.sim.borrow_mut().arm_crash_at(k);
    }

    fn disarm(&mut self) -> Vec<String> {
        self.sim.borrow_mut().disarm_crash()
    }

    fn crash_fired(&mut self) -> bool {
        self.sim.borrow().crashed_in_flight().is_some()
    }

    fn recover(&mut self) -> Option<String> {
        self.sim
            .borrow_mut()
            .recover_crashed_machine()
            .map(|inf| inf.label())
    }

    fn check_invariants(&mut self) -> Option<CrashOracleViolation> {
        self.sim
            .borrow_mut()
            .check_crash_invariants()
            .err()
            .map(|v| CrashOracleViolation {
                class: v.class.as_str().into(),
                detail: v.detail,
            })
    }

    fn window_step_ms(&self) -> u64 {
        self.sim.borrow().config().migrate_step_ms
    }

    fn set_runtime_audit(&mut self, on: bool) {
        self.sim.borrow_mut().set_runtime_audit(on);
    }
}

/// Fork/restore over the simulator's delta-journal snapshots. The sim
/// rewinds its own virtual clock, so restored replays see identical
/// timestamps; the diagnostic command log is intentionally not rewound
/// (it mirrors what a human operator's terminal history would show).
impl SnapshotCapable for SimAdaptor {
    fn snapshot(&mut self) -> u64 {
        self.sim.borrow_mut().fork()
    }

    fn restore(&mut self, id: u64) -> bool {
        self.sim.borrow_mut().restore(id)
    }

    fn release(&mut self, id: u64) {
        self.sim.borrow_mut().release(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis::spec::{Operand, Operation, Operator};

    fn adaptor(flavor: Flavor) -> SimAdaptor {
        SimAdaptor::new(flavor, BugSet::None)
    }

    fn create(path: &str, size: u64) -> Operation {
        Operation::new(
            Operator::Create,
            vec![Operand::FileName(path.into()), Operand::Size(size)],
        )
    }

    #[test]
    fn send_executes_against_the_sim() {
        let mut a = adaptor(Flavor::Hdfs);
        a.send(&create("/x", 1 << 20)).unwrap();
        let inv = a.inventory();
        assert_eq!(inv.files, vec!["/x".to_string()]);
        assert!(a.coverage() > 0);
        assert!(a.now_ms() > 0);
    }

    #[test]
    fn rejected_operations_surface_as_errors() {
        let mut a = adaptor(Flavor::GlusterFs);
        let del = Operation::new(Operator::Delete, vec![Operand::FileName("/nope".into())]);
        match a.send(&del) {
            Err(AdaptorError::Rejected(msg)) => assert!(msg.contains("no such path")),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn untranslatable_node_id_is_rejected() {
        let mut a = adaptor(Flavor::LeoFs);
        let bad = Operation::new(Operator::RemoveStorage, vec![Operand::NodeId(u64::MAX)]);
        assert!(matches!(a.send(&bad), Err(AdaptorError::Rejected(_))));
    }

    #[test]
    fn load_report_covers_ten_nodes() {
        let mut a = adaptor(Flavor::CephFs);
        let report = a.load_report();
        assert_eq!(report.nodes.len(), 10);
        assert_eq!(report.by_role(Role::Management).count(), 3);
        assert_eq!(report.by_role(Role::Storage).count(), 7);
    }

    #[test]
    fn inventory_tracks_topology_changes() {
        use simdfs::{FaultEvent, FaultKind, FaultPlan};
        // Inventory is topology plus the namespace listing.
        fn assert_matches_topology(a: &mut SimAdaptor, step: &str) {
            let inv = a.inventory();
            let topo = a.topology();
            assert_eq!(inv.mgmt, topo.mgmt, "{step}");
            assert_eq!(inv.storage, topo.storage, "{step}");
            assert_eq!(inv.volumes, topo.volumes, "{step}");
            assert_eq!(inv.free_space, topo.free_space, "{step}");
        }
        let mut a = adaptor(Flavor::Hdfs);
        a.send(&create("/x", 1 << 20)).unwrap();
        let before = a.inventory();
        assert_eq!(before.files, vec!["/x".to_string()]);
        assert_matches_topology(&mut a, "deployed");

        a.send(&Operation::new(
            Operator::AddStorage,
            vec![Operand::Size(1 << 30)],
        ))
        .unwrap();
        let added = a.inventory();
        assert_eq!(added.storage.len(), before.storage.len() + 1);
        assert!(added.volumes.len() > before.volumes.len());
        assert_matches_topology(&mut a, "after add-storage");

        let volume = added.volumes[0];
        a.send(&Operation::new(
            Operator::RemoveVolume,
            vec![Operand::VolumeId(volume)],
        ))
        .unwrap();
        let removed = a.inventory();
        assert!(!removed.volumes.contains(&volume));
        assert_matches_topology(&mut a, "after remove-volume");

        let now = a.now_ms();
        a.handle()
            .borrow_mut()
            .set_fault_plan(FaultPlan::new(vec![FaultEvent {
                at_ms: now + 1,
                kind: FaultKind::CrashStorage { index: 0 },
            }]));
        a.wait(10);
        assert_eq!(a.handle().borrow().crashed_nodes().len(), 1);
        let crashed = a.inventory();
        assert_eq!(crashed.storage.len(), removed.storage.len() - 1);
        assert_matches_topology(&mut a, "after a crash fault");
    }

    #[test]
    fn inventory_hides_only_the_sys_preload() {
        let mut a = adaptor(Flavor::GlusterFs);
        assert!(a.handle().borrow().namespace().exists("/sys/base0"));
        a.send(&create("/sysx", 1 << 20)).unwrap();
        a.send(&Operation::new(
            Operator::Mkdir,
            vec![Operand::FileName("/sys2".into())],
        ))
        .unwrap();
        a.send(&create("/sys2/f", 1 << 20)).unwrap();
        // Exactly the tester's paths: `/sys/base*` stays hidden.
        let inv = a.inventory();
        assert_eq!(inv.files, vec!["/sys2/f".to_string(), "/sysx".to_string()]);
        assert_eq!(inv.dirs, vec!["/sys2".to_string()]);
    }

    #[test]
    fn reset_restores_initial_inventory() {
        let mut a = adaptor(Flavor::Hdfs);
        a.send(&create("/x", 1 << 20)).unwrap();
        a.send(&Operation::new(
            Operator::AddStorage,
            vec![Operand::Size(1 << 30)],
        ))
        .unwrap();
        a.reset();
        let inv = a.inventory();
        assert!(inv.files.is_empty());
        assert_eq!(inv.storage.len(), 8);
    }

    #[test]
    fn rebalance_api_roundtrip() {
        let mut a = adaptor(Flavor::GlusterFs);
        for i in 0..30 {
            a.send(&create(&format!("/f{i}"), 16 << 20)).unwrap();
        }
        a.send(&Operation::new(
            Operator::AddStorage,
            vec![Operand::Size(4 << 30)],
        ))
        .unwrap();
        a.rebalance();
        let mut guard = 0;
        while !a.rebalance_done() && guard < 10_000 {
            a.wait(1_000);
            guard += 1;
        }
        assert!(a.rebalance_done());
    }

    #[test]
    fn command_log_records_rendered_commands() {
        let mut a = adaptor(Flavor::GlusterFs);
        a.send(&create("/x", 1)).unwrap();
        let log = a.command_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].contains("dd if=/dev/urandom"));
    }

    #[test]
    fn command_log_is_bounded() {
        let mut a = adaptor(Flavor::Hdfs);
        a.command_log_cap = 10;
        for i in 0..50 {
            let _ = a.send(&create(&format!("/f{i}"), 1));
        }
        assert!(a.command_log().len() <= 10);
    }

    #[test]
    fn client_timeout_rejects_slow_requests() {
        let mut a = adaptor(Flavor::Hdfs);
        // Absurdly tight client timeout: every request is now "too slow".
        a.retry.timeout_ms = 0;
        match a.send(&create("/x", 1 << 20)) {
            Err(AdaptorError::Rejected(msg)) => assert!(msg.contains("client timeout")),
            other => panic!("expected client timeout, got {other:?}"),
        }
        // The file was still created server-side (the client only hung
        // up), so the default-policy adaptor behavior is unchanged.
        a.retry = RetryPolicy::default();
        a.send(&create("/y", 1 << 20)).unwrap();
    }

    #[test]
    fn retry_with_backoff_survives_transient_outage() {
        use simdfs::{FaultEvent, FaultKind, FaultPlan};
        let mut a = adaptor(Flavor::Hdfs);
        // Partition both management nodes away at t=1s, heal at t=10s: a
        // transient control-plane outage. The retry backoff (5 s, then
        // 10 s of virtual time) carries the client past the heal.
        a.handle().borrow_mut().set_fault_plan(FaultPlan::new(vec![
            FaultEvent {
                at_ms: 1_000,
                kind: FaultKind::PartitionMgmt { index: 0 },
            },
            FaultEvent {
                at_ms: 1_000,
                kind: FaultKind::PartitionMgmt { index: 0 },
            },
            FaultEvent {
                at_ms: 10_000,
                kind: FaultKind::Heal,
            },
        ]));
        a.wait(2_000);
        assert!(a.send(&create("/x", 1 << 20)).is_ok());

        // With retries disabled the same outage surfaces as Down.
        let mut b = adaptor(Flavor::Hdfs);
        b.retry.max_retries = 0;
        b.handle().borrow_mut().set_fault_plan(FaultPlan::new(vec![
            FaultEvent {
                at_ms: 1_000,
                kind: FaultKind::PartitionMgmt { index: 0 },
            },
            FaultEvent {
                at_ms: 1_000,
                kind: FaultKind::PartitionMgmt { index: 0 },
            },
        ]));
        b.wait(2_000);
        assert!(matches!(
            b.send(&create("/x", 1 << 20)),
            Err(AdaptorError::Down(_))
        ));
    }

    #[test]
    fn snapshot_capability_forwards_to_the_sim() {
        let mut a = adaptor(Flavor::GlusterFs);
        a.send(&create("/x", 1 << 20)).unwrap();
        let t0 = a.now_ms();
        let files0 = a.inventory().files;
        let mark = a.snapshots().expect("sim adaptor forks").snapshot();
        a.send(&create("/y", 1 << 20)).unwrap();
        assert!(a.now_ms() > t0);
        assert!(a.snapshots().unwrap().restore(mark));
        assert_eq!(a.now_ms(), t0, "restore rewinds the virtual clock");
        assert_eq!(a.inventory().files, files0);
        a.reset();
        assert!(
            !a.snapshots().unwrap().restore(mark),
            "reset invalidates marks"
        );
    }

    #[test]
    fn base_restore_reproduces_a_fresh_adaptor() {
        let mut reused = adaptor(Flavor::GlusterFs);
        reused.mark_base();
        for i in 0..10 {
            reused.send(&create(&format!("/warm{i}"), 4 << 20)).unwrap();
        }
        assert!(reused.restore_to_base());
        assert!(reused.command_log().is_empty());

        let mut fresh = adaptor(Flavor::GlusterFs);
        assert_eq!(reused.now_ms(), fresh.now_ms());
        assert_eq!(reused.coverage(), fresh.coverage());
        for i in 0..10 {
            reused.send(&create(&format!("/f{i}"), 4 << 20)).unwrap();
            fresh.send(&create(&format!("/f{i}"), 4 << 20)).unwrap();
        }
        assert_eq!(reused.now_ms(), fresh.now_ms());
        assert_eq!(reused.coverage(), fresh.coverage());
        assert_eq!(reused.inventory().files, fresh.inventory().files);
        assert_eq!(reused.free_space(), fresh.free_space());
    }

    #[test]
    fn free_space_shrinks_with_data() {
        let mut a = adaptor(Flavor::Hdfs);
        let before = a.free_space();
        a.send(&create("/big", 64 << 20)).unwrap();
        assert!(a.free_space() < before);
    }

    #[test]
    fn bounded_exploration_finds_all_seeded_classes_where_random_misses() {
        // The acceptance-criteria scenario: on GlusterFS (the linkfile
        // flavor) bounded exploration finds all three seeded
        // crash-window classes, while the random-time baseline with the
        // same fork budget misses at least one.
        let mut a = adaptor(Flavor::GlusterFs);
        let cfg = themis::CrashExplorerConfig::default();
        let result = themis::run_crash_campaign(&mut a, &cfg).unwrap();
        for class in ["orphan_replica", "double_counted_blocks", "lost_linkfile"] {
            assert!(
                result.bounded.found(class),
                "bounded arm must find {class}; found {:?}",
                result.bounded.by_class
            );
        }
        assert_eq!(result.baseline.forks, result.bounded.forks);
        let missed = ["orphan_replica", "double_counted_blocks", "lost_linkfile"]
            .iter()
            .filter(|c| !result.baseline.found(c))
            .count();
        assert!(
            missed >= 1,
            "random baseline with the same budget must miss a class; found {:?}",
            result.baseline.by_class
        );
    }

    #[test]
    fn non_linkfile_flavors_find_the_accounting_classes() {
        let mut a = adaptor(Flavor::Hdfs);
        let cfg = themis::CrashExplorerConfig::default();
        let result = themis::run_crash_campaign(&mut a, &cfg).unwrap();
        assert!(result.bounded.found("orphan_replica"));
        assert!(result.bounded.found("double_counted_blocks"));
        assert!(
            !result.bounded.found("lost_linkfile"),
            "HDFS has no linkfile machinery"
        );
    }

    #[test]
    fn crash_campaign_is_deterministic() {
        let cfg = themis::CrashExplorerConfig::default();
        let mut a = adaptor(Flavor::GlusterFs);
        let first = themis::run_crash_campaign(&mut a, &cfg).unwrap();
        let mut b = adaptor(Flavor::GlusterFs);
        let second = themis::run_crash_campaign(&mut b, &cfg).unwrap();
        assert_eq!(first, second, "same seed must reproduce bit-identically");
    }
}
