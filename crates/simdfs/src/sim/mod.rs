//! The top-level DFS simulator.
//!
//! [`DfsSim`] wires the namespace, cluster, placement policy, balancer,
//! coverage model and bug engine into a single deterministic discrete-event
//! system with the external interface of a real deployment: execute a
//! request, trigger/inspect rebalance, monitor load, reset. Themis talks to
//! it only through the Interaction Adaptor, exactly as it talks to HDFS or
//! GlusterFS through shell commands and FUSE in the paper.

use crate::balancer::{Balancer, RebalanceStatus};
use crate::bugs::catalog;
use crate::bugs::{BugEngine, BugRuntime, BugSpec, Effect, SimEvent};
use crate::clock::{PeriodicTimer, SimClock};
use crate::cluster::Cluster;
use crate::coverage::{CoverageModel, Region};
use crate::crash::CrashRuntime;
use crate::error::{SimError, SimResult};
use crate::faults::{FaultInjector, FaultKind, FaultPlan};
use crate::flavor::{BalancerStyle, Flavor, FlavorConfig, RoutingKind};
use crate::hashing::{hash_str, mix};
use crate::metrics::{ClusterSnapshot, NodeLoadSample};
use crate::namespace::Namespace;
use crate::placement::{Placement, PlacementCache, PlacementPolicy, VolumeView};
use crate::request::{DfsRequest, OpClass, ReqOutcome};
use crate::types::{Bytes, FileId, NodeId, NodeRole, SimTime, VolumeId, MIB};
use rewind::SimSnapshot;
use std::cmp::Ordering;
use std::collections::BTreeMap;

mod migrate;
mod rewind;

/// Which latent bugs a simulator instance is built with.
#[derive(Debug, Clone)]
pub enum BugSet {
    /// A hypothetical bug-free build (useful for false-positive studies).
    None,
    /// The latest versions carrying the 10 previously unknown failures.
    New,
    /// The historical versions carrying the 53 studied failures.
    Historical,
    /// Both the new and historical bug sets.
    All,
    /// A custom set (used by targeted reproduction tests).
    Custom(Vec<BugSpec>),
}

impl BugSet {
    fn specs(&self, flavor: Flavor) -> Vec<BugSpec> {
        match self {
            BugSet::None => Vec::new(),
            BugSet::New => catalog::new_bugs(flavor),
            BugSet::Historical => catalog::historical_bugs(flavor),
            BugSet::All => {
                let mut v = catalog::new_bugs(flavor);
                v.extend(catalog::historical_bugs(flavor));
                v
            }
            BugSet::Custom(specs) => specs
                .iter()
                .filter(|s| s.platform == flavor)
                .cloned()
                .collect(),
        }
    }
}

/// Cumulative statistics across the simulator's lifetime (never reset).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Requests executed (including failed ones).
    pub ops: u64,
    /// Requests that returned an error.
    pub failed_ops: u64,
    /// Rebalance rounds started.
    pub rebalance_rounds: u64,
    /// File migrations executed.
    pub migrations: u64,
    /// Bytes moved by migrations.
    pub bytes_migrated: u64,
    /// Bytes lost to data-loss effects and unplaceable displaced replicas.
    pub bytes_lost: u64,
    /// Times the DFS was reset to its initial state.
    pub resets: u64,
    /// Successful operations per [`OpClass`] index (see
    /// [`crate::request::OpClass::index`]).
    pub class_counts: [u64; 14],
}

/// One simulated distributed file system instance.
#[derive(Debug)]
pub struct DfsSim {
    cfg: FlavorConfig,
    bug_set: BugSet,
    clock: SimClock,
    ns: Namespace,
    cluster: Cluster,
    placement: Box<dyn PlacementPolicy>,
    /// Precomputed placement structures keyed off the cluster's topology
    /// generation (rings, weight tables) plus scoring scratch buffers.
    placement_cache: PlacementCache,
    /// Placement structures for the filtered copy in `views_buf`, rebuilt
    /// by [`DfsSim::filter_views`] once per plan that hides a volume.
    filtered_cache: PlacementCache,
    /// Reusable volume-view buffer: the filtered copy that partitioned or
    /// hotspot placements run on (see [`DfsSim::filter_views`]), and the
    /// re-replication candidates.
    views_buf: Vec<VolumeView>,
    /// Reusable per-block placement output buffer.
    placed_buf: Placement,
    /// Reusable fragment-plan buffer (returned to the pool by the
    /// `plan_fragments` callers after they consume the plan).
    frags_buf: Vec<(VolumeId, Bytes)>,
    /// Reusable speculative-fill undo list for canonical planning:
    /// `(view position, previous used)` — O(touched) per plan, reused so
    /// the hot path allocates nothing.
    undo_buf: Vec<(usize, Bytes)>,
    balancer: Balancer,
    bugs: BugEngine,
    coverage: CoverageModel,
    check_timer: Option<PeriodicTimer>,
    migrate_timer: PeriodicTimer,
    rr_counter: u64,
    prev_kind: Option<u64>,
    prev2_kind: Option<u64>,
    /// GlusterFS dht-rebalance hash cache: placement key -> expiry.
    hash_cache: BTreeMap<u64, SimTime>,
    crashed: Vec<NodeId>,
    /// Scheduled environment faults plus their active runtime state (see
    /// [`crate::faults`]); empty and inert unless a plan is installed.
    faults: FaultInjector,
    stats: SimStats,
    last_variance: (f64, f64, f64),
    /// Rewind marks, oldest first. `marks[0]` is mark 0, the deployed
    /// state that [`DfsSim::reset`] and [`DfsSim::restore_to_base`] return
    /// to; it is never released. The rest are fork marks (see
    /// [`DfsSim::fork`]) along one execution lineage: restoring one
    /// invalidates every deeper mark.
    marks: Vec<SimSnapshot>,
    /// Monotonic id source for marks (never reused, so a stale id from
    /// before a reset can never alias a live mark).
    next_mark_id: u64,
    /// Coverage at mark 0, which marks themselves leave out (see
    /// [`SimSnapshot`]): coverage is monotone within one campaign but
    /// rewinds between campaigns.
    base_coverage: CoverageModel,
    /// Crash-point instrumentation over the migration pipeline (see
    /// [`crate::crash`]); disarmed and inert on the normal hot path.
    crash: CrashRuntime,
    /// Whether [`DfsSim::audit_state`] runs automatically after every
    /// snapshot restore. Defaults to on in debug builds; release-mode
    /// campaigns opt in via [`DfsSim::set_runtime_audit`] — the
    /// crash-consistency oracle needs the guard with `debug_assertions`
    /// off, while hot-path campaigns keep it disabled for throughput.
    runtime_audit: bool,
}

impl DfsSim {
    /// Builds a simulator for `flavor` with the given bug set, creating the
    /// flavor's default 10-node topology.
    pub fn new(flavor: Flavor, bug_set: BugSet) -> Self {
        let cfg = flavor.config();
        Self::with_config(cfg, bug_set)
    }

    /// Builds a simulator from an explicit configuration.
    pub fn with_config(cfg: FlavorConfig, bug_set: BugSet) -> Self {
        let bugs = BugEngine::new(bug_set.specs(cfg.flavor));
        let check_timer = match cfg.balancer {
            BalancerStyle::OnDemand { check_period_ms } => {
                Some(PeriodicTimer::new(check_period_ms))
            }
            BalancerStyle::Periodic { period_ms } => Some(PeriodicTimer::new(period_ms)),
            _ => None,
        };
        let mut sim = DfsSim {
            placement: cfg.placement.build(),
            placement_cache: PlacementCache::new(),
            filtered_cache: PlacementCache::new(),
            views_buf: Vec::new(),
            placed_buf: Vec::new(),
            frags_buf: Vec::new(),
            undo_buf: Vec::new(),
            balancer: Balancer::new(cfg.balance_threshold),
            coverage: CoverageModel::new(cfg.coverage),
            bugs,
            check_timer,
            migrate_timer: PeriodicTimer::new(cfg.migrate_step_ms),
            clock: SimClock::new(),
            ns: Namespace::new(),
            cluster: Cluster::new(),
            rr_counter: 0,
            prev_kind: None,
            prev2_kind: None,
            hash_cache: BTreeMap::new(),
            crashed: Vec::new(),
            faults: FaultInjector::default(),
            stats: SimStats::default(),
            last_variance: (1.0, 1.0, 1.0),
            marks: Vec::new(),
            next_mark_id: 0,
            base_coverage: CoverageModel::new(cfg.coverage),
            crash: CrashRuntime::default(),
            runtime_audit: cfg!(debug_assertions),
            cfg,
            bug_set,
        };
        for _ in 0..sim.cfg.mgmt_nodes {
            sim.cluster.add_mgmt(6);
        }
        for _ in 0..sim.cfg.storage_nodes {
            sim.cluster
                .add_storage(sim.cfg.volumes_per_node, sim.cfg.volume_capacity);
        }
        sim.preload_base_data();
        // Mark 0 closes the deploy: the `/sys` preload before it is not
        // journaled, everything after it is.
        sim.mark_base();
        sim
    }

    /// Pre-loads base data under `/sys` (outside the tester's mount): a
    /// production cluster is never empty, so the balancer operates against
    /// a large existing distribution and single operations only nudge it.
    fn preload_base_data(&mut self) {
        if self.cfg.base_fill <= 0.0 || self.cfg.base_file_size == 0 {
            return;
        }
        let raw_target = (self.cluster.total_capacity() as f64 * self.cfg.base_fill) as u64;
        let per_file = self.cfg.base_file_size * self.cfg.replicas as u64;
        let count = raw_target / per_file.max(1);
        let _ = self.apply_request(&DfsRequest::Mkdir {
            path: "/sys".into(),
        });
        // Deploy-time ingest is balanced: operators bulk-load evenly (and
        // any imbalance would have been rebalanced long before testing
        // starts), so fragments go round-robin across volumes rather than
        // through the runtime placement policy. Preload happens before the
        // clock starts and is invisible to triggers, coverage and load
        // accounting.
        let mut views = self.cluster.volume_views();
        views.sort_by_key(|v| v.volume);
        let mut rr = 0usize;
        // Bulk-load mode defers the per-store tracker/view maintenance:
        // `end_bulk_load` rebuilds the streaming stats from ground truth in
        // one O(V) pass, which is bit-identical to the per-mutation path
        // because the accumulators are exact integers. Without it, deploying
        // the four 2,000-node `scale-heavy` clusters takes about 10% longer
        // (EXPERIMENTS.md).
        self.cluster.begin_bulk_load();
        let mut path = String::with_capacity(32);
        for i in 0..count {
            use std::fmt::Write as _;
            path.clear();
            let _ = write!(path, "/sys/base{i}");
            let Ok(fid) = self.ns.create(&path, self.cfg.base_file_size) else {
                continue;
            };
            for _copy in 0..self.cfg.replicas {
                for _try in 0..views.len() {
                    let v = views[rr % views.len()];
                    rr += 1;
                    if self
                        .cluster
                        .store(fid, v.volume, self.cfg.base_file_size)
                        .is_ok()
                    {
                        break;
                    }
                }
            }
            if let Some(meta) = self.cluster.file_mut(fid) {
                meta.key = hash_str(&path);
            }
        }
        self.cluster.end_bulk_load();
        // Deploy-time writes are not runtime load.
        for m in self.cluster.mgmt.values_mut() {
            m.load.reset();
        }
        for st in self.cluster.storage.values_mut() {
            st.load.reset();
        }
    }

    /// The flavor configuration.
    pub fn config(&self) -> &FlavorConfig {
        &self.cfg
    }

    /// The flavor under test.
    pub fn flavor(&self) -> Flavor {
        self.cfg.flavor
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Covered branches (the coverage-collection interface of Table 5).
    pub fn coverage_count(&self) -> u64 {
        self.coverage.covered()
    }

    /// Read access to the coverage model (diagnostics).
    pub fn coverage(&self) -> &CoverageModel {
        &self.coverage
    }

    /// Ground-truth oracle: ids of bugs whose trigger has fired.
    ///
    /// This is *never* exposed to Themis — only the evaluation harness uses
    /// it to attribute detector reports to root causes.
    pub fn oracle_triggered(&self) -> Vec<&'static str> {
        self.bugs.triggered_ids()
    }

    /// Ground-truth oracle: full runtime state of every armed bug.
    pub fn oracle_bugs(&self) -> &[BugRuntime] {
        self.bugs.bugs()
    }

    /// Nodes that crashed due to a crash-effect bug or a crash fault.
    pub fn crashed_nodes(&self) -> &[NodeId] {
        &self.crashed
    }

    /// Installs a fault plan (see [`crate::faults`]), replacing any
    /// previous plan and clearing its active state. Events fire when the
    /// virtual clock passes their timestamp.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.set_plan(plan);
    }

    /// Read access to the fault injector (diagnostics and tests).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Bytes lost to data-loss effects so far.
    pub fn bytes_lost(&self) -> Bytes {
        self.stats.bytes_lost
    }

    /// Total free bytes (exposed to Themis's Size operand model).
    pub fn free_space(&self) -> Bytes {
        self.cluster.total_free()
    }

    /// Direct read access to the namespace (used by adaptors to sync the
    /// fuzzer's file-tree model after a reset).
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Direct read access to the cluster (used by the evaluation harness
    /// and figure generators; Themis itself only sees load reports).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    // ------------------------------------------------------------------
    // Request execution
    // ------------------------------------------------------------------

    /// Executes one request against the DFS.
    pub fn execute(&mut self, req: &DfsRequest) -> SimResult<ReqOutcome> {
        if self.cluster_down() {
            return Err(SimError::ClusterDown);
        }
        let class = req.class();
        let mgmt = self.route_request(req);
        // A slow-node fault on the serving gateway multiplies the request
        // latency (the client observes the degradation end to end).
        let cost = match mgmt {
            Some(id) => self
                .request_cost(req)
                .saturating_mul(self.faults.slow_mgmt_factor(id) as u64),
            None => self.request_cost(req),
        };
        self.charge_mgmt(mgmt, req);

        let result = self.apply_request(req);
        let ok = result.is_ok();
        self.stats.ops += 1;
        if ok {
            self.stats.class_counts[class.index() as usize] += 1;
        } else {
            self.stats.failed_ops += 1;
        }

        // Time passes; in-flight migrations make progress.
        self.advance(cost);

        // Feed the bug engine and coverage model.
        let ev = SimEvent::Op {
            class,
            ok,
            size: req.payload(),
        };
        self.feed_bugs(&ev);
        if ok && class.is_membership() {
            let mev = SimEvent::MembershipChange { class };
            self.feed_bugs(&mev);
        }
        self.sample_variance();
        self.touch_op_coverage(req, ok);

        // Continuous CPU-spin effects burn victim CPU per executed request.
        self.apply_cpu_spin();

        // Balancer activation per flavor style.
        self.maybe_activate_balancer(class, ok);

        result.map(|mut out| {
            out.latency_ms = cost;
            out
        })
    }

    fn cluster_down(&self) -> bool {
        if !self.faults.has_partitions() {
            return !self.cluster.has_online_mgmt() || !self.cluster.has_online_storage();
        }
        // Partitioned nodes are up but unreachable: if every gateway (or
        // every storage node) is cut off, clients see a dead cluster.
        let mgmt_ok = self
            .cluster
            .mgmt
            .values()
            .any(|m| m.online && !self.faults.is_partitioned(m.id));
        let storage_ok = self
            .cluster
            .storage
            .values()
            .any(|s| s.online && !self.faults.is_partitioned(s.id));
        !mgmt_ok || !storage_ok
    }

    fn request_cost(&self, req: &DfsRequest) -> u64 {
        let payload_ms = (req.payload() / MIB) * 10;
        match req.class() {
            OpClass::Read => 300,
            OpClass::DirMeta | OpClass::Rename => 350,
            c if c.is_config() => 2_000,
            _ => 500 + payload_ms.min(30_000),
        }
    }

    /// The capacity a new volume is actually provisioned with.
    ///
    /// The testbed attaches uniform disks (the paper's system model assumes
    /// near-homogeneous hardware, and its containers share identical SSDs),
    /// so the requested size is recorded but the standard disk is attached.
    /// Heterogeneous capacities would put fill-based placement and
    /// byte-based balancing in permanent conflict, making the LBS
    /// definition (raw bytes per node) meaningless.
    fn clamp_capacity(&self, _requested: Bytes) -> Bytes {
        self.cfg.default_new_volume_capacity()
    }

    /// Online management nodes reachable from clients (partitioned
    /// gateways are up but take no traffic).
    fn reachable_mgmt_count(&self) -> usize {
        if !self.faults.has_partitions() {
            return self.cluster.online_mgmt_count();
        }
        self.cluster
            .mgmt
            .values()
            .filter(|m| m.online && !self.faults.is_partitioned(m.id))
            .count()
    }

    /// The `i`-th reachable management node in id order.
    fn nth_reachable_mgmt(&self, i: usize) -> Option<NodeId> {
        if !self.faults.has_partitions() {
            return self.cluster.nth_online_mgmt(i);
        }
        self.cluster
            .mgmt
            .values()
            .filter(|m| m.online && !self.faults.is_partitioned(m.id))
            .nth(i)
            .map(|m| m.id)
    }

    fn route_request(&mut self, req: &DfsRequest) -> Option<NodeId> {
        let online_len = self.reachable_mgmt_count();
        if online_len == 0 {
            return None;
        }
        // A NetFunnel effect hijacks routing toward its victim.
        let funnel_active = self
            .bugs
            .active_effects()
            .any(|(s, _)| matches!(s.effect, Effect::NetFunnel));
        if funnel_active {
            let victim = self
                .bugs
                .active_effects()
                .find(|(s, _)| matches!(s.effect, Effect::NetFunnel))
                .and_then(|(_, v)| v)
                .filter(|v| {
                    self.cluster.mgmt.get(v).is_some_and(|m| m.online)
                        && !self.faults.is_partitioned(*v)
                })
                // The original victim is gone: the faulty measuring code
                // now funnels everything to the first surviving gateway.
                .or_else(|| self.nth_reachable_mgmt(0));
            if let Some(v) = victim {
                return Some(v);
            }
        }
        let path = request_path(req);
        // Administrative commands go to the cluster's HA admin endpoint,
        // which load-balances across management nodes; only client file
        // requests follow the flavor's routing scheme.
        let pick = if req.class().is_config() || path.is_empty() {
            self.rr_counter += 1;
            (self.rr_counter as usize) % online_len
        } else {
            match self.cfg.routing {
                RoutingKind::RoundRobin => {
                    self.rr_counter += 1;
                    (self.rr_counter as usize) % online_len
                }
                RoutingKind::HashPath => (hash_str(path) as usize) % online_len,
                RoutingKind::PrimarySubtree => {
                    // Dynamic subtree partitioning: hot directories are
                    // split across MDS ranks, so at equilibrium requests
                    // spread per-path within each directory.
                    let top = path.split('/').find(|c| !c.is_empty()).unwrap_or("");
                    (mix(hash_str(top), hash_str(path)) as usize) % online_len
                }
            }
        };
        self.nth_reachable_mgmt(pick)
    }

    fn charge_mgmt(&mut self, mgmt: Option<NodeId>, req: &DfsRequest) {
        let now = self.clock.now();
        let Some(id) = mgmt else { return };
        let slow = self.faults.slow_mgmt_factor(id) as f64;
        let Some(load) = self.cluster.mgmt_load_mut(id) else {
            return;
        };
        load.rps.add(now, 1.0);
        // Uniform per-request metadata cost: data transfer is handled by
        // the storage pipeline, not the management node's CPU. A slow-node
        // fault burns proportionally more CPU per request served.
        load.cpu.add(now, slow);
        match req.class() {
            OpClass::Read => load.read_io.add(now, 1.0),
            c if c.is_request() => load.write_io.add(now, 1.0),
            _ => {}
        }
    }

    // detlint:allow(crash-decomposition): delete/churn arms are atomic windows pending ROADMAP item 7 (migration is decomposed; create/delete/heal are next)
    fn apply_request(&mut self, req: &DfsRequest) -> SimResult<ReqOutcome> {
        match req {
            DfsRequest::Create { path, size } => self.do_create(path, *size),
            DfsRequest::Delete { path } => {
                let (fid, _) = self.ns.delete(path)?;
                self.cluster.free_file(fid);
                self.hash_cache.remove(&hash_str(path));
                Ok(ReqOutcome::default())
            }
            DfsRequest::Append { path, delta } => {
                let (_, size) = self.ns.open(path)?;
                self.do_resize(path, size.saturating_add(*delta))
            }
            DfsRequest::Overwrite { path, size } => self.do_resize(path, *size),
            DfsRequest::TruncateOverwrite { path, size } => self.do_resize(path, *size),
            DfsRequest::Open { path } => {
                let (fid, _) = self.ns.open(path)?;
                self.charge_read(fid);
                Ok(ReqOutcome::default())
            }
            DfsRequest::Mkdir { path } => {
                self.ns.mkdir(path)?;
                Ok(ReqOutcome::default())
            }
            DfsRequest::Rmdir { path } => {
                self.ns.rmdir(path)?;
                Ok(ReqOutcome::default())
            }
            DfsRequest::Rename { from, to } => self.do_rename(from, to),
            DfsRequest::AddMgmtNode => {
                if self.cluster.mgmt.len() as u32 >= self.cfg.max_mgmt_nodes {
                    return Err(SimError::ResourceLimit("management node".into()));
                }
                let id = self.cluster.add_mgmt(6);
                let now = self.clock.now();
                self.cluster.note_joined(id, now);
                self.faults.mgmt_added(id);
                Ok(ReqOutcome {
                    new_node: Some(id),
                    ..Default::default()
                })
            }
            DfsRequest::RemoveMgmtNode { node } => {
                self.cluster.remove_mgmt(*node)?;
                self.faults.mgmt_removed(*node);
                Ok(ReqOutcome::default())
            }
            DfsRequest::AddStorageNode { volumes, capacity } => {
                if self.cluster.storage.len() as u32 >= self.cfg.max_storage_nodes {
                    return Err(SimError::ResourceLimit("storage node".into()));
                }
                let cap = self.clamp_capacity(*capacity);
                let (id, vols) = self.cluster.add_storage((*volumes).max(1), cap);
                let now = self.clock.now();
                self.cluster.note_joined(id, now);
                self.faults.storage_added(id);
                Ok(ReqOutcome {
                    new_node: Some(id),
                    new_volumes: vols,
                    ..Default::default()
                })
            }
            DfsRequest::RemoveStorageNode { node } => {
                let displaced = self.cluster.remove_storage(*node)?;
                self.faults.storage_removed(*node);
                self.replace_displaced(displaced);
                Ok(ReqOutcome::default())
            }
            DfsRequest::AddVolume { node, capacity } => {
                if self
                    .cluster
                    .storage
                    .get(node)
                    .is_some_and(|n| n.volumes.len() as u32 >= self.cfg.max_volumes_per_node)
                {
                    return Err(SimError::ResourceLimit("volume".into()));
                }
                let cap = self.clamp_capacity(*capacity);
                let vid = self.cluster.add_volume(*node, cap)?;
                Ok(ReqOutcome {
                    new_volumes: vec![vid],
                    ..Default::default()
                })
            }
            DfsRequest::RemoveVolume { volume } => {
                let displaced = self.cluster.remove_volume(*volume)?;
                self.replace_displaced(displaced);
                Ok(ReqOutcome::default())
            }
            DfsRequest::ExpandVolume { volume, delta } => {
                // Provisioning limits: logical volumes can stretch at most
                // 10% beyond the standard disk (thin-provisioning slack).
                let cur = self
                    .cluster
                    .volume(*volume)
                    .ok_or(SimError::NoSuchVolume(*volume))?
                    .capacity;
                let max = self.cfg.volume_capacity + self.cfg.volume_capacity / 10;
                let delta = (*delta).min(max.saturating_sub(cur));
                self.cluster.expand_volume(*volume, delta)?;
                Ok(ReqOutcome::default())
            }
            DfsRequest::ReduceVolume { volume, delta } => {
                // A volume cannot shrink below 90% of the standard disk.
                let cur = self
                    .cluster
                    .volume(*volume)
                    .ok_or(SimError::NoSuchVolume(*volume))?
                    .capacity;
                let min = self.cfg.volume_capacity - self.cfg.volume_capacity / 10;
                let delta = (*delta).min(cur.saturating_sub(min));
                self.cluster.reduce_volume(*volume, delta)?;
                Ok(ReqOutcome::default())
            }
        }
    }

    // detlint:allow(crash-decomposition): create (namespace insert + fragment placement) runs as one atomic window pending ROADMAP item 7
    fn do_create(&mut self, path: &str, size: Bytes) -> SimResult<ReqOutcome> {
        let key = hash_str(path);
        let fragments = self.plan_fragments(key, size)?;
        let fid = self.ns.create(path, size)?;
        for (vol, bytes) in &fragments {
            if let Err(e) = self.cluster.store(fid, *vol, *bytes) {
                // Roll back partial placement.
                self.cluster.free_file(fid);
                let _ = self.ns.delete(path);
                self.frags_buf = fragments;
                return Err(e);
            }
            self.charge_storage_write(*vol);
        }
        self.frags_buf = fragments;
        if let Some(meta) = self.cluster.file_mut(fid) {
            meta.key = key;
        }
        Ok(ReqOutcome::default())
    }

    /// Plans the physical fragments for `size` bytes of new data.
    ///
    /// Block-striping flavors split the data into `block_size` blocks and
    /// place each block's replicas independently; whole-file flavors
    /// (GlusterFS) place one fragment per replica. A `HotspotPlacement`
    /// effect funnels a percentage of placements onto its victim node, and
    /// a partition hides its storage nodes; either way the blocks are
    /// placed on the filtered copy [`DfsSim::filter_views`] builds.
    /// Otherwise they are placed on the cluster's canonical views cache
    /// without copying it: O(blocks · log V) per op instead of O(V).
    ///
    /// Later blocks see the fill of earlier ones. The filtered copy is
    /// bumped in place; canonical views get speculative
    /// [`Cluster::bump_view_used`] bumps, rolled back before returning, and
    /// the caller's `store` calls then apply the real mutations.
    fn plan_fragments(&mut self, key: u64, size: Bytes) -> SimResult<Vec<(VolumeId, Bytes)>> {
        if size == 0 {
            return Ok(Vec::new());
        }
        let hotspot = self
            .bugs
            .active_effects()
            .find_map(|(s, v)| match s.effect {
                Effect::HotspotPlacement { pct } => v.map(|victim| (pct, victim)),
                _ => None,
            });
        let hot_victim = match hotspot {
            Some((pct, victim)) if ((mix(key, 0x68_6f_74) % 100) as u8) < pct => Some(victim),
            _ => None,
        };
        let filtered = self.filter_views(hot_victim);
        let block = self.effective_block(size);
        // Fragments stay block-granular so the balancer can move them
        // individually; consecutive blocks landing on the same volume are
        // coalesced only up to a migration-friendly cap.
        const MAX_FRAGMENT: Bytes = 64 * MIB;
        let mut out = std::mem::take(&mut self.frags_buf);
        out.clear();
        let mut placed = std::mem::take(&mut self.placed_buf);
        let mut remaining = size;
        let mut block_idx = 0u64;
        let mut failed = None;
        // Speculative fill bumps of the canonical views to unwind: (view
        // position, previous used). The buffer is a reusable field so the
        // hot path allocates nothing; its length is the number of
        // *touched* views, never O(V).
        let mut undo = std::mem::take(&mut self.undo_buf);
        undo.clear();
        while remaining > 0 {
            let b = block.min(remaining);
            self.place_block(
                filtered,
                mix(key, block_idx),
                b,
                self.cfg.replicas,
                &mut placed,
            );
            // Fewer replicas than requested is acceptable under space
            // pressure (reduced redundancy); zero placements is ENOSPC.
            if placed.is_empty() {
                failed = Some(SimError::OutOfSpace {
                    requested: b,
                    free: self.cluster.total_free(),
                });
                break;
            }
            for &vol in &placed {
                let cap = MAX_FRAGMENT.max(block);
                match out
                    .iter_mut()
                    .rev()
                    .take(self.cfg.replicas)
                    .find(|(v, bytes)| *v == vol && bytes.saturating_add(b) <= cap)
                {
                    Some((_, bytes)) => *bytes += b,
                    None => out.push((vol, b)),
                }
                // Keep the planning views' fill levels current so later
                // blocks avoid volumes this plan already filled.
                if filtered {
                    if let Some(v) = self.views_buf.iter_mut().find(|v| v.volume == vol) {
                        v.used = v.used.saturating_add(b);
                    }
                } else if let Some(pos) = self.cluster.view_pos(vol) {
                    undo.push((pos, self.cluster.bump_view_used(pos, b)));
                }
            }
            remaining -= b;
            block_idx += 1;
        }
        // Unwind the speculative bumps in reverse so repeated bumps of the
        // same view settle back to the original fill level exactly.
        for (pos, old) in undo.drain(..).rev() {
            self.cluster.set_view_used(pos, old);
        }
        self.undo_buf = undo;
        self.placed_buf = placed;
        match failed {
            Some(e) => {
                self.frags_buf = out;
                Err(e)
            }
            None => Ok(out),
        }
    }

    /// Chooses the effective block size for `size` bytes: whole-file when
    /// the flavor does not stripe (sharding large files like the GlusterFS
    /// shard translator); otherwise cap the number of blocks so enormous
    /// files stay tractable (a real DFS would use larger chunks, too).
    fn effective_block(&self, size: Bytes) -> Bytes {
        if self.cfg.block_size == 0 {
            if self.cfg.shard_threshold > 0 && size > self.cfg.shard_threshold {
                self.cfg.shard_size.max(size.div_ceil(64))
            } else {
                size
            }
        } else {
            self.cfg.block_size.max(size.div_ceil(64))
        }
    }

    /// Builds the filtered copy of the volume views into `views_buf` and
    /// rebuilds `filtered_cache` for it, returning whether any volume was
    /// hidden; when none was, placements go to the canonical views instead.
    /// Partitioned storage nodes are unreachable for new placements, and a
    /// `hot_victim` narrows the list to its own volumes, or to the most
    /// utilized node's once the victim left the cluster.
    fn filter_views(&mut self, hot_victim: Option<NodeId>) -> bool {
        if hot_victim.is_none() && !self.faults.has_partitions() {
            return false;
        }
        let mut views = std::mem::take(&mut self.views_buf);
        self.cluster.volume_views_into(&mut views);
        let mut filtered = false;
        if self.faults.has_partitions() {
            let faults = &self.faults;
            let before = views.len();
            views.retain(|v| !faults.is_partitioned(v.node));
            filtered = views.len() != before;
        }
        if let Some(victim) = hot_victim {
            // Once the original victim left the cluster, the faulty
            // placement path funnels toward the currently most utilized
            // node instead.
            let target = if views.iter().any(|v| v.node == victim) {
                Some(victim)
            } else {
                Balancer::hottest_node(&self.cluster)
            };
            if let Some(node) = target.filter(|&n| views.iter().any(|v| v.node == n)) {
                views.retain(|v| v.node == node);
                filtered = true;
            }
        }
        if filtered {
            self.placement.rebuild(&mut self.filtered_cache, &views);
        }
        self.views_buf = views;
        filtered
    }

    /// Places one block into `out`: on the filtered copy when `filtered`
    /// (see [`DfsSim::filter_views`]), else on the canonical views.
    fn place_block(
        &mut self,
        filtered: bool,
        key: u64,
        size: Bytes,
        replicas: usize,
        out: &mut Placement,
    ) {
        if filtered {
            self.placement.place_via(
                &mut self.filtered_cache,
                key,
                size,
                replicas,
                &self.views_buf,
                out,
            );
        } else {
            let generation = self.cluster.generation();
            self.placement.place_cached_into(
                &mut self.placement_cache,
                generation,
                key,
                size,
                replicas,
                self.cluster.canonical_views(),
                out,
            );
        }
    }

    // detlint:allow(crash-decomposition): resize (namespace size + replica rescale/spill) runs as one atomic window pending ROADMAP item 7
    fn do_resize(&mut self, path: &str, new_size: Bytes) -> SimResult<ReqOutcome> {
        let (fid, old) = self.ns.open(path)?;
        if old == 0 && new_size > 0 {
            // Growth from empty requires fresh placement.
            let key = self
                .cluster
                .files()
                .get(&fid)
                .map(|m| m.key)
                .unwrap_or(fid.0);
            let fragments = self.plan_fragments(key, new_size)?;
            for (vol, bytes) in &fragments {
                self.cluster.store(fid, *vol, *bytes)?;
                self.charge_storage_write(*vol);
            }
            self.frags_buf = fragments;
            self.ns.resize(path, new_size)?;
            return Ok(ReqOutcome::default());
        }
        let whole_file = self.cfg.block_size == 0
            && (self.cfg.shard_threshold == 0 || new_size.max(old) <= self.cfg.shard_threshold);
        if new_size > old && !whole_file {
            // Striped growth appends new blocks; existing fragments are
            // immutable once written (HDFS/Ceph/LeoFS semantics).
            let key = self
                .cluster
                .files()
                .get(&fid)
                .map(|m| m.key)
                .unwrap_or(fid.0);
            let delta = new_size - old;
            let fragments = self.plan_fragments(mix(key, old), delta)?;
            for (vol, bytes) in &fragments {
                self.cluster.store(fid, *vol, *bytes)?;
                self.charge_storage_write(*vol);
            }
            self.frags_buf = fragments;
            self.ns.resize(path, new_size)?;
            return Ok(ReqOutcome::default());
        }
        // Whole-file growth and all shrinks rescale fragments in place.
        self.cluster.rescale_file(fid, old, new_size)?;
        self.ns.resize(path, new_size)?;
        // Charge write IO on every node holding a fragment.
        let vols: Vec<VolumeId> = self
            .cluster
            .files()
            .get(&fid)
            .map(|m| m.replicas.iter().map(|r| r.volume).collect())
            .unwrap_or_default();
        for v in vols {
            self.charge_storage_write(v);
        }
        Ok(ReqOutcome::default())
    }

    /// Single-replica hash-location lookup (Gluster linkfile maintenance)
    /// on the views a partition leaves reachable.
    fn hash_location(&mut self, key: u64) -> Option<VolumeId> {
        let mut placed = std::mem::take(&mut self.placed_buf);
        let filtered = self.filter_views(None);
        self.place_block(filtered, key, 0, 1, &mut placed);
        let loc = placed.first().copied();
        self.placed_buf = placed;
        loc
    }

    fn do_rename(&mut self, from: &str, to: &str) -> SimResult<ReqOutcome> {
        let moved_file = self.ns.rename(from, to)?;
        if let Some(fid) = moved_file {
            let new_key = hash_str(to);
            if let Some(meta) = self.cluster.file_mut(fid) {
                meta.key = new_key;
            }
            if self.cfg.flavor == Flavor::GlusterFs {
                // DHT semantics: data stays put; if the new hash location
                // differs from where the data lives, a linkfile appears at
                // the hash location.
                self.recompute_linkfile(fid, new_key);
            }
        }
        Ok(ReqOutcome::default())
    }

    /// Points `fid`'s linkfile at the hash location of `key` when no
    /// replica lives there, and clears it otherwise.
    fn recompute_linkfile(&mut self, fid: FileId, key: u64) {
        let hash_loc = self.hash_location(key);
        if let Some(meta) = self.cluster.file_mut(fid) {
            meta.linkfile_at = match hash_loc {
                Some(h) if !meta.replicas.iter().any(|r| r.volume == h) => Some(h),
                _ => None,
            };
        }
    }

    fn charge_read(&mut self, fid: FileId) {
        let now = self.clock.now();
        let vols: Vec<VolumeId> = self
            .cluster
            .files()
            .get(&fid)
            .map(|m| m.replicas.iter().map(|r| r.volume).collect())
            .unwrap_or_default();
        // Reads are served by one replica; pick deterministically.
        if let Some(v) = vols.first() {
            if let Some(owner) = self.cluster.volume_owner.get(v).copied() {
                if let Some(load) = self.cluster.storage_load_mut(owner) {
                    load.read_io.add(now, 1.0);
                    load.cpu.add(now, 0.5);
                }
            }
        }
    }

    fn charge_storage_write(&mut self, vol: VolumeId) {
        let now = self.clock.now();
        if let Some(owner) = self.cluster.volume_owner.get(&vol).copied() {
            if let Some(load) = self.cluster.storage_load_mut(owner) {
                load.write_io.add(now, 1.0);
                load.cpu.add(now, 0.5);
            }
        }
    }

    /// Re-places replicas displaced by node/volume removal; unplaceable
    /// bytes are lost (and counted).
    ///
    /// Re-replication targets the least-utilized volumes first, as real
    /// recovery does (HDFS re-replication, Ceph backfill): decommissioning
    /// a node therefore barely disturbs the balance on its own — reaching
    /// a deeply imbalanced state takes coordinated sequences, not a single
    /// heavyweight command (Finding 6).
    fn replace_displaced(&mut self, displaced: Vec<(FileId, crate::cluster::Replica)>) {
        if displaced.is_empty() {
            return;
        }
        let mut views = std::mem::take(&mut self.views_buf);
        self.cluster.volume_views_into(&mut views);
        // Least-utilized volume with room (by fill fraction). `total_cmp`
        // keeps the sort a total order (fill fractions are never NaN here
        // thanks to `capacity.max(1)`, but a partial comparator falling
        // back to `Equal` is a latent determinism hazard). The comparator
        // is a *strict* total order (volume ids are unique), so sorting
        // once and re-inserting the single view each store changes yields
        // exactly the order a full re-sort per replica used to produce —
        // O((V + D) log V) instead of O(D · V log V).
        fn by_fill(a: &VolumeView, b: &VolumeView) -> Ordering {
            let fa = a.used as f64 / a.capacity.max(1) as f64;
            let fb = b.used as f64 / b.capacity.max(1) as f64;
            fa.total_cmp(&fb).then(a.volume.cmp(&b.volume))
        }
        views.sort_by(by_fill);
        for (fid, replica) in displaced {
            let target = views.iter().position(|v| v.free() >= replica.bytes);
            match target {
                Some(i)
                    if self
                        .cluster
                        .store(fid, views[i].volume, replica.bytes)
                        .is_ok() =>
                {
                    self.charge_storage_write(views[i].volume);
                    let mut moved = views.remove(i);
                    moved.used = moved.used.saturating_add(replica.bytes);
                    let pos = views.partition_point(|v| by_fill(v, &moved) == Ordering::Less);
                    views.insert(pos, moved);
                }
                _ => {
                    self.stats.bytes_lost += replica.bytes;
                }
            }
        }
        self.views_buf = views;
    }

    // ------------------------------------------------------------------
    // Time, faults and balancer activation (moves run in `migrate.rs`)
    // ------------------------------------------------------------------

    /// Advances virtual time without executing a request (used while the
    /// tester waits for rebalancing to finish).
    pub fn tick(&mut self, ms: u64) {
        self.advance(ms);
        self.sample_variance();
        self.apply_cpu_spin();
        self.maybe_activate_balancer(OpClass::Read, true);
    }

    fn advance(&mut self, ms: u64) {
        // An armed crash fired and its victim has not been recovered yet:
        // the explorer inspects the frozen mid-migration state before
        // anything else happens, so time holds still.
        if self.crash.in_flight.is_some() {
            return;
        }
        let now = self.clock.advance(ms);
        // Fire scheduled environment faults before migration steps: the
        // steps must observe crashes/partitions that became due.
        if self.faults.any() {
            self.apply_due_faults(now.as_millis());
        }
        // Execute due migration steps.
        let steps = self.migrate_timer.due(now);
        for _ in 0..steps {
            if self.balancer.status() != RebalanceStatus::Running {
                break;
            }
            let moves = self.balancer.next_moves(self.cfg.moves_per_step);
            for m in moves {
                self.execute_move(&m);
                if self.crash.in_flight.is_some() {
                    // The machine applying this move just crashed; the
                    // rest of the step dies with the aborted round.
                    return;
                }
            }
            if self.balancer.status() == RebalanceStatus::Done {
                let ev = SimEvent::RebalanceDone {
                    moves: self.balancer.total_moves as usize,
                };
                self.feed_bugs(&ev);
                self.touch_deep(0xD0_4E, self.balancer.total_moves);
            }
        }
    }

    fn apply_due_faults(&mut self, now_ms: u64) {
        while let Some(kind) = self.faults.next_due(now_ms) {
            self.apply_fault(kind);
        }
    }

    /// Applies one fault event, resolving rank-based targets against the
    /// current online sets (id-ordered, hence deterministic).
    fn apply_fault(&mut self, kind: FaultKind) {
        fn pick(ids: &[NodeId], index: u32) -> Option<NodeId> {
            if ids.is_empty() {
                None
            } else {
                Some(ids[index as usize % ids.len()])
            }
        }
        match kind {
            FaultKind::CrashStorage { index } => {
                let online = self.cluster.online_storage();
                // Never crash the last survivor (mirrors the bug engine).
                if online.len() <= 1 {
                    return;
                }
                let id = online[index as usize % online.len()];
                self.cluster.set_offline(id);
                self.crashed.push(id);
                self.faults.note_crashed(id);
                self.balancer.abort();
            }
            FaultKind::RestartStorage { index } => {
                if let Some(id) = self.faults.take_crashed(index) {
                    self.cluster.set_online(id);
                    self.crashed.retain(|n| *n != id);
                }
            }
            FaultKind::SlowMgmt { index, factor } => {
                if let Some(id) = pick(&self.cluster.online_mgmt(), index) {
                    self.faults.set_slow_mgmt(id, factor);
                }
            }
            FaultKind::SlowStorage { index, factor } => {
                if let Some(id) = pick(&self.cluster.online_storage(), index) {
                    self.faults.set_slow_storage(id, factor);
                }
            }
            FaultKind::DiskFull { index } => {
                if let Some(id) = pick(&self.cluster.online_storage(), index) {
                    self.cluster.set_volumes_full(id);
                    self.faults.note_disk_full(id);
                }
            }
            FaultKind::LossyMigration { pct } => self.faults.set_loss(pct),
            // Partition targets rank over the still-reachable set, so
            // successive events cut off distinct nodes.
            FaultKind::PartitionMgmt { index } => {
                let mut reachable = self.cluster.online_mgmt();
                reachable.retain(|id| !self.faults.is_partitioned(*id));
                if let Some(id) = pick(&reachable, index) {
                    self.faults.partition(id);
                }
            }
            FaultKind::PartitionStorage { index } => {
                let mut reachable = self.cluster.online_storage();
                reachable.retain(|id| !self.faults.is_partitioned(*id));
                if let Some(id) = pick(&reachable, index) {
                    self.faults.partition(id);
                }
            }
            FaultKind::Heal => self.faults.heal(),
        }
    }

    fn maybe_activate_balancer(&mut self, class: OpClass, ok: bool) {
        let membership = ok && class.is_membership();
        let due = match self.cfg.balancer {
            BalancerStyle::Continuous => true,
            BalancerStyle::OnDemand { .. } | BalancerStyle::Periodic { .. } => {
                let now = self.clock.now();
                self.check_timer
                    .as_mut()
                    .map(|t| t.due(now) > 0)
                    .unwrap_or(false)
            }
            BalancerStyle::OnMembership => membership,
        };
        // GlusterFS also starts a rebalance when volume topology changes
        // (volume add/remove-brick commands imply `rebalance start`), and
        // every flavor re-replicates after losing a node or volume —
        // decommissioning is itself a rebalance process.
        let gluster_topology = self.cfg.flavor == Flavor::GlusterFs
            && membership
            && matches!(class, OpClass::VolumeAdd | OpClass::VolumeRemove);
        let recovery =
            membership && matches!(class, OpClass::StorageRemove | OpClass::VolumeRemove);
        if (due || gluster_topology || recovery)
            && self.balancer.status() == RebalanceStatus::Done
            && self.balancer.needs_rebalance(&self.cluster)
        {
            self.start_rebalance_round();
        }
    }

    /// The `rebalance` API: explicitly starts a rebalance round (the paper
    /// uses this for the detector's double-check).
    pub fn rebalance(&mut self) {
        if self.balancer.status() == RebalanceStatus::Done {
            self.start_rebalance_round();
        }
    }

    /// The `rebalance state` API.
    pub fn rebalance_status(&self) -> RebalanceStatus {
        self.balancer.status()
    }

    fn start_rebalance_round(&mut self) {
        // Effect hooks in the planner. The hooks are applied *before*
        // planning where the outcome is provable without the plan: a
        // MisreportRebalance always clears it, and the hot-node filter
        // empties it whenever every donor IS the hot node (the common
        // hotspot-bug steady state) — both shortcuts skip the full
        // file-table scan `plan` would do, which otherwise dominates
        // continuous-balancer campaigns.
        let misreport = self
            .bugs
            .any_active(|e| matches!(e, Effect::MisreportRebalance));
        let hot_filtered = self.bugs.any_active(|e| {
            matches!(
                e,
                Effect::SkipMigrationFromHot | Effect::HotspotPlacement { .. }
            )
        });
        // Partitioned nodes are unreachable for the balancer's move RPCs.
        let excluded = if self.faults.has_partitions() {
            self.faults.partitioned_nodes()
        } else {
            Vec::new()
        };
        let plan = if misreport {
            Vec::new()
        } else if hot_filtered {
            match Balancer::hottest_node(&self.cluster) {
                Some(hot) => {
                    let donors = self.balancer.donor_nodes(&self.cluster);
                    if !donors.is_empty() && donors.iter().all(|d| *d == hot) {
                        Vec::new()
                    } else {
                        let mut plan = self.balancer.plan_excluding(&self.cluster, &excluded);
                        plan.retain(|m| m.from_node != hot);
                        plan
                    }
                }
                None => self.balancer.plan_excluding(&self.cluster, &excluded),
            }
        } else {
            self.balancer.plan_excluding(&self.cluster, &excluded)
        };
        let planned = plan.len() as u64;
        self.balancer.start_round(plan);
        self.stats.rebalance_rounds += 1;
        let ev = SimEvent::RebalanceStart;
        self.feed_bugs(&ev);
        let vb = self.variance_bucket();
        self.touch_deep(mix(0x5247, planned.min(16)), vb);
    }

    // ------------------------------------------------------------------
    // Bug effects, events and variance
    // ------------------------------------------------------------------

    fn feed_bugs(&mut self, ev: &SimEvent) {
        let now = self.clock.now();
        let fired = self.bugs.observe(now, ev);
        for idx in fired {
            self.arm_effect(idx);
        }
    }

    /// Assigns a victim and applies instantaneous effects for a bug that
    /// just fired.
    fn arm_effect(&mut self, idx: usize) {
        let effect = self.bugs.bugs()[idx].spec.effect;
        match effect {
            Effect::HotspotPlacement { .. }
            | Effect::SkipMigrationFromHot
            | Effect::DeleteMigratedData { .. }
            | Effect::MisreportRebalance => {
                if let Some(hot) = Balancer::hottest_node(&self.cluster) {
                    self.bugs.set_victim(idx, hot);
                }
            }
            Effect::Inert => {}
            Effect::CpuSpin | Effect::NetFunnel => {
                let mgmt = self.cluster.online_mgmt();
                if let Some(v) = mgmt.first() {
                    self.bugs.set_victim(idx, *v);
                }
            }
            Effect::CrashNodes { count } => {
                // Crash the most loaded storage nodes; they stay down.
                let mut loads = self.cluster.node_storage();
                loads.sort_by_key(|(_, b)| std::cmp::Reverse(*b));
                let keep_alive = 1; // never crash the very last node
                for (node, _) in loads.into_iter().take(count as usize).take(
                    self.cluster
                        .online_storage()
                        .len()
                        .saturating_sub(keep_alive),
                ) {
                    self.cluster.set_offline(node);
                    self.crashed.push(node);
                    if self.bugs.bugs()[idx].victim.is_none() {
                        self.bugs.set_victim(idx, node);
                    }
                }
                self.balancer.abort();
            }
        }
    }

    fn apply_cpu_spin(&mut self) {
        let now = self.clock.now();
        let spins = self
            .bugs
            .active_effects()
            .filter(|(s, _)| matches!(s.effect, Effect::CpuSpin))
            .map(|(_, v)| v)
            .collect::<Vec<_>>();
        for victim in spins {
            let target = victim
                .filter(|v| self.cluster.mgmt.get(v).is_some_and(|m| m.online))
                .or_else(|| self.cluster.nth_online_mgmt(0));
            if let Some(v) = target {
                if let Some(load) = self.cluster.mgmt_load_mut(v) {
                    load.cpu.add(now, 6.0);
                }
            }
        }
    }

    fn sample_variance(&mut self) {
        let (storage, cpu, network) = self.compute_variance();
        self.last_variance = (storage, cpu, network);
        let ev = SimEvent::Variance {
            storage,
            cpu,
            network,
        };
        self.feed_bugs(&ev);
    }

    /// Computes the three imbalance ratios without feeding the bug engine
    /// (the per-op probe; also exposed to the scaling benchmark via
    /// [`DfsSim::variance_probe`]).
    ///
    /// The storage dimension is an O(1) read off the cluster's streaming
    /// utilization stats — maintained incrementally at every mutation site
    /// with the same eligibility filter (`StorageNode::util_q`) the old
    /// full walk applied. The CPU/network dimensions still walk the
    /// management fleet, which is bounded by `max_mgmt_nodes` (4–5) and
    /// therefore O(1) with respect to storage scale; their decaying-rate
    /// counters have no exact streaming form.
    fn compute_variance(&mut self) -> (f64, f64, f64) {
        let now = self.clock.now();
        let storage = self.cluster.util_stats().imbalance_ratio();
        let cpu = ClusterSnapshot::imbalance_ratio_iter(
            self.cluster
                .mgmt
                .values_mut()
                .filter(|m| m.online)
                .map(|m| m.load.cpu.value_at(now)),
        );
        let network = ClusterSnapshot::imbalance_ratio_iter(
            self.cluster
                .mgmt
                .values_mut()
                .filter(|m| m.online)
                .map(|m| {
                    m.load.rps.value_at(now)
                        + m.load.read_io.value_at(now)
                        + m.load.write_io.value_at(now)
                }),
        );
        (storage, cpu, network)
    }

    /// Samples the (storage, cpu, network) imbalance ratios right now,
    /// without advancing time or feeding triggers. This is the probe the
    /// scaling benchmark times to prove the per-op variance cost stays
    /// flat from 10 to 10k nodes.
    pub fn variance_probe(&mut self) -> (f64, f64, f64) {
        self.compute_variance()
    }

    fn variance_bucket(&self) -> u64 {
        let (s, _, _) = self.last_variance;
        (((s - 1.0) * 20.0).clamp(0.0, 9.0)) as u64
    }

    // ------------------------------------------------------------------
    // Coverage features
    // ------------------------------------------------------------------

    fn touch_op_coverage(&mut self, req: &DfsRequest, ok: bool) {
        let kind = request_kind_index(req);
        let size_bucket = size_bucket(req.payload());
        let depth = path_depth(request_path(req));
        // Base: per-operation handler with operand-shape sub-branches.
        let base_feat = mix(kind, mix(size_bucket, mix(depth, ok as u64)));
        self.coverage.touch(Region::Base, base_feat);
        // Pair and triple: execution-dependency branches.
        if let Some(prev) = self.prev_kind {
            self.coverage
                .touch(Region::Pair, mix(prev, mix(kind, 0x5041_4952)));
            if let Some(prev2) = self.prev2_kind {
                self.coverage
                    .touch(Region::Pair, mix(prev2, mix(prev, mix(kind, 0x5452_4950))));
            }
        }
        // State: op × load-state × balancer-phase branches.
        let (s, c, n) = self.last_variance;
        let sb = (((s - 1.0) * 20.0).clamp(0.0, 9.0)) as u64;
        let cb = (((c - 1.0) * 10.0).clamp(0.0, 4.0)) as u64;
        let nb = (((n - 1.0) * 10.0).clamp(0.0, 4.0)) as u64;
        let phase = matches!(self.balancer.status(), RebalanceStatus::Running) as u64;
        let state_feat = mix(kind, mix(sb, mix(cb, mix(nb, phase))));
        self.coverage.touch(Region::State, state_feat);
        self.prev2_kind = self.prev_kind;
        self.prev_kind = Some(kind);
    }

    fn touch_deep(&mut self, tag: u64, extra: u64) {
        let feat = mix(tag, extra);
        self.coverage.touch(Region::Deep, feat);
    }

    // ------------------------------------------------------------------
    // Monitoring and reset
    // ------------------------------------------------------------------

    /// Collects a cluster-wide load snapshot (the `LoadMonitor()` data).
    pub fn load_snapshot(&mut self) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::default();
        self.load_snapshot_into(&mut snap);
        snap
    }

    /// Allocation-free variant of [`DfsSim::load_snapshot`]: clears and
    /// refills `out`, reusing its sample buffer. The campaign loop calls
    /// this once per iteration with a long-lived snapshot.
    pub fn load_snapshot_into(&mut self, out: &mut ClusterSnapshot) {
        let now = self.clock.now();
        out.time = now;
        let nodes = &mut out.nodes;
        nodes.clear();
        for m in self.cluster.mgmt.values_mut() {
            // A partitioned node is unreachable for the monitor and drops
            // out of the report entirely (unlike a crash, which the
            // monitor still observes as a dead peer).
            if self.faults.is_partitioned(m.id) {
                continue;
            }
            nodes.push(NodeLoadSample {
                node: m.id,
                role: NodeRole::Management,
                online: m.online,
                cpu: m.load.cpu.value_at(now),
                rps: m.load.rps.value_at(now),
                read_io: m.load.read_io.value_at(now),
                write_io: m.load.write_io.value_at(now),
                storage: 0,
                capacity: 0,
                uptime_ms: now.saturating_since(m.joined),
            });
        }
        for s in self.cluster.storage.values_mut() {
            // A df-based monitor sees nothing on a node whose disks were
            // all detached; such nodes drop out of the report, as do
            // partitioned (unreachable) nodes.
            if s.volumes.is_empty() || self.faults.is_partitioned(s.id) {
                continue;
            }
            let storage = s.volumes.iter().map(|v| v.used).sum();
            let capacity = s.volumes.iter().map(|v| v.capacity).sum();
            nodes.push(NodeLoadSample {
                node: s.id,
                role: NodeRole::Storage,
                online: s.online,
                cpu: s.load.cpu.value_at(now),
                rps: 0.0,
                read_io: s.load.read_io.value_at(now),
                write_io: s.load.write_io.value_at(now),
                storage,
                capacity,
                uptime_ms: now.saturating_since(s.joined),
            });
        }
        nodes.sort_by_key(|n| n.node);
    }

    /// The bug set this simulator was built with.
    pub fn bug_set(&self) -> &BugSet {
        &self.bug_set
    }
}

/// The primary path operand of a request ("" when not applicable).
fn request_path(req: &DfsRequest) -> &str {
    match req {
        DfsRequest::Create { path, .. }
        | DfsRequest::Delete { path }
        | DfsRequest::Append { path, .. }
        | DfsRequest::Overwrite { path, .. }
        | DfsRequest::Open { path }
        | DfsRequest::TruncateOverwrite { path, .. }
        | DfsRequest::Mkdir { path }
        | DfsRequest::Rmdir { path } => path,
        DfsRequest::Rename { from, .. } => from,
        _ => "",
    }
}

/// Stable index over the 17 concrete operators of the paper's grammar.
fn request_kind_index(req: &DfsRequest) -> u64 {
    match req {
        DfsRequest::Create { .. } => 0,
        DfsRequest::Delete { .. } => 1,
        DfsRequest::Append { .. } => 2,
        DfsRequest::Overwrite { .. } => 3,
        DfsRequest::Open { .. } => 4,
        DfsRequest::TruncateOverwrite { .. } => 5,
        DfsRequest::Mkdir { .. } => 6,
        DfsRequest::Rmdir { .. } => 7,
        DfsRequest::Rename { .. } => 8,
        DfsRequest::AddMgmtNode => 9,
        DfsRequest::RemoveMgmtNode { .. } => 10,
        DfsRequest::AddStorageNode { .. } => 11,
        DfsRequest::RemoveStorageNode { .. } => 12,
        DfsRequest::AddVolume { .. } => 13,
        DfsRequest::RemoveVolume { .. } => 14,
        DfsRequest::ExpandVolume { .. } => 15,
        DfsRequest::ReduceVolume { .. } => 16,
    }
}

fn size_bucket(bytes: Bytes) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let mib = (bytes / MIB).max(1);
    (64 - (mib.leading_zeros() as u64)).min(10)
}

fn path_depth(path: &str) -> u64 {
    path.split('/').filter(|c| !c.is_empty()).count().min(4) as u64
}
#[cfg(test)]
mod tests {
    use super::migrate::lossy_kept;
    use super::*;
    use crate::crash::{CrashClass, CrashViolation};

    /// A simulator without pre-loaded base data, so byte-level assertions
    /// are exact.
    fn sim(flavor: Flavor) -> DfsSim {
        let mut cfg = flavor.config();
        cfg.base_fill = 0.0;
        DfsSim::with_config(cfg, BugSet::None)
    }

    #[test]
    fn default_build_preloads_base_data() {
        let mut s = DfsSim::new(Flavor::Hdfs, BugSet::None);
        let used = s.cluster.total_used() as f64;
        let cap = s.cluster.total_capacity() as f64;
        let fill = used / cap;
        assert!(
            (0.25..0.45).contains(&fill),
            "expected ~35% fill, got {fill:.2}"
        );
        // Base data is spread evenly enough to start balanced.
        let ratio = s.load_snapshot().storage_imbalance();
        assert!(
            ratio < 1.15,
            "preload should be near-balanced, ratio {ratio:.3}"
        );
        // Preload leaves no runtime load and no coverage.
        assert_eq!(s.coverage_count(), 0);
        assert_eq!(s.stats().ops, 0);
    }

    #[test]
    fn preload_survives_reset() {
        let mut s = DfsSim::new(Flavor::GlusterFs, BugSet::None);
        let used = s.cluster.total_used();
        s.execute(&DfsRequest::Create {
            path: "/x".into(),
            size: MIB,
        })
        .unwrap();
        s.reset();
        assert_eq!(s.cluster.total_used(), used, "reset must restore base data");
    }

    #[test]
    fn create_places_replicas() {
        let mut s = sim(Flavor::Hdfs);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: 10 * MIB,
        })
        .unwrap();
        let meta: Vec<_> = s.cluster.files().values().collect();
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].replicas.len(), 3, "HDFS uses 3 replicas");
        assert_eq!(s.cluster.total_used(), 30 * MIB);
    }

    #[test]
    fn delete_frees_data() {
        let mut s = sim(Flavor::GlusterFs);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: 8 * MIB,
        })
        .unwrap();
        assert!(s.cluster.total_used() > 0);
        s.execute(&DfsRequest::Delete { path: "/a".into() })
            .unwrap();
        assert_eq!(s.cluster.total_used(), 0);
        assert_eq!(s.namespace().file_count(), 0);
    }

    #[test]
    fn append_grows_replicas() {
        let mut s = sim(Flavor::LeoFs);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: 4 * MIB,
        })
        .unwrap();
        let before = s.cluster.total_used();
        s.execute(&DfsRequest::Append {
            path: "/a".into(),
            delta: 4 * MIB,
        })
        .unwrap();
        assert_eq!(s.cluster.total_used(), before * 2);
    }

    #[test]
    fn failed_request_is_counted_but_harmless() {
        let mut s = sim(Flavor::Hdfs);
        let err = s.execute(&DfsRequest::Delete {
            path: "/missing".into(),
        });
        assert!(err.is_err());
        assert_eq!(s.stats().failed_ops, 1);
        assert_eq!(s.stats().ops, 1);
    }

    #[test]
    fn clock_advances_with_requests() {
        let mut s = sim(Flavor::Hdfs);
        let t0 = s.now();
        s.execute(&DfsRequest::Mkdir { path: "/d".into() }).unwrap();
        assert!(s.now() > t0);
    }

    #[test]
    fn add_storage_node_changes_topology() {
        let mut s = sim(Flavor::CephFs);
        let n_before = s.cluster.online_storage().len();
        let out = s
            .execute(&DfsRequest::AddStorageNode {
                volumes: 2,
                capacity: MIB * 512,
            })
            .unwrap();
        assert!(out.new_node.is_some());
        assert_eq!(out.new_volumes.len(), 2);
        assert_eq!(s.cluster.online_storage().len(), n_before + 1);
    }

    #[test]
    fn remove_storage_node_replaces_data() {
        let mut s = sim(Flavor::CephFs);
        for i in 0..20 {
            s.execute(&DfsRequest::Create {
                path: format!("/f{i}"),
                size: 4 * MIB,
            })
            .unwrap();
        }
        let used_before = s.cluster.total_used();
        let victim = s.cluster.online_storage()[0];
        s.execute(&DfsRequest::RemoveStorageNode { node: victim })
            .unwrap();
        // All data should be re-placed (ample free space), nothing lost.
        assert_eq!(s.cluster.total_used(), used_before);
        assert_eq!(s.bytes_lost(), 0);
    }

    #[test]
    fn imbalanced_cluster_self_rebalances_continuous() {
        // CephFS balances continuously: forcing all early data onto a
        // subset by filling then expanding should be corrected over time.
        let mut s = sim(Flavor::CephFs);
        for i in 0..40 {
            s.execute(&DfsRequest::Create {
                path: format!("/f{i}"),
                size: 16 * MIB,
            })
            .unwrap();
        }
        // Add an empty node: now it is far below mean.
        s.execute(&DfsRequest::AddStorageNode {
            volumes: 2,
            capacity: 4 << 30,
        })
        .unwrap();
        // Let the balancer work.
        for _ in 0..200 {
            s.tick(2_000);
        }
        let snap = s.load_snapshot();
        let ratio = snap.storage_imbalance();
        assert!(
            ratio < 1.25,
            "continuous balancer should restore balance, ratio = {ratio:.3}"
        );
        assert!(s.stats().migrations > 0);
    }

    #[test]
    fn explicit_rebalance_api_works() {
        let mut s = sim(Flavor::GlusterFs);
        for i in 0..30 {
            s.execute(&DfsRequest::Create {
                path: format!("/f{i}"),
                size: 16 * MIB,
            })
            .unwrap();
        }
        s.execute(&DfsRequest::AddStorageNode {
            volumes: 2,
            capacity: 4 << 30,
        })
        .unwrap();
        s.rebalance();
        let mut guard = 0;
        while s.rebalance_status() == RebalanceStatus::Running && guard < 10_000 {
            s.tick(1_000);
            guard += 1;
        }
        assert_eq!(s.rebalance_status(), RebalanceStatus::Done);
    }

    #[test]
    fn coverage_grows_with_activity() {
        let mut s = sim(Flavor::Hdfs);
        assert_eq!(s.coverage_count(), 0);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: MIB,
        })
        .unwrap();
        let c1 = s.coverage_count();
        assert!(c1 > 0);
        s.execute(&DfsRequest::Open { path: "/a".into() }).unwrap();
        assert!(s.coverage_count() > c1);
    }

    #[test]
    fn coverage_survives_reset() {
        let mut s = sim(Flavor::Hdfs);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: MIB,
        })
        .unwrap();
        let c = s.coverage_count();
        s.reset();
        assert_eq!(s.coverage_count(), c);
        assert_eq!(s.namespace().file_count(), 0);
        assert_eq!(s.stats().resets, 1);
    }

    #[test]
    fn reset_restores_topology() {
        let mut s = sim(Flavor::LeoFs);
        s.execute(&DfsRequest::AddStorageNode {
            volumes: 1,
            capacity: MIB,
        })
        .unwrap();
        let grown = s.cluster.online_storage().len();
        s.reset();
        assert_eq!(
            s.cluster.online_storage().len(),
            grown - 1,
            "reset must restore the initial topology"
        );
    }

    #[test]
    fn snapshot_has_all_nodes() {
        let mut s = sim(Flavor::Hdfs);
        let snap = s.load_snapshot();
        assert_eq!(snap.nodes.len(), 10);
        let mgmt = snap
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::Management)
            .count();
        assert_eq!(mgmt, 2);
    }

    #[test]
    fn gluster_rename_creates_linkfile_when_hash_moves() {
        let mut s = sim(Flavor::GlusterFs);
        // Create many files; at least one rename should relocate the hash.
        let mut saw_linkfile = false;
        for i in 0..30 {
            let p = format!("/f{i}");
            s.execute(&DfsRequest::Create {
                path: p.clone(),
                size: MIB,
            })
            .unwrap();
            s.execute(&DfsRequest::Rename {
                from: p,
                to: format!("/renamed{i}"),
            })
            .unwrap();
        }
        for meta in s.cluster.files().values() {
            if meta.linkfile_at.is_some() {
                saw_linkfile = true;
            }
        }
        assert!(
            saw_linkfile,
            "renames should produce at least one DHT linkfile"
        );
    }

    #[test]
    fn routing_spreads_requests_across_mgmt_nodes() {
        let mut s = sim(Flavor::Hdfs); // round robin
        for i in 0..40 {
            s.execute(&DfsRequest::Create {
                path: format!("/f{i}"),
                size: MIB,
            })
            .unwrap();
        }
        let snap = s.load_snapshot();
        let rps: Vec<f64> = snap
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::Management)
            .map(|n| n.rps)
            .collect();
        assert!(
            rps.iter().all(|&r| r > 0.0),
            "all mgmt nodes should receive requests: {rps:?}"
        );
    }

    #[test]
    fn out_of_space_create_fails_cleanly() {
        let mut cfg = Flavor::Hdfs.config();
        cfg.volume_capacity = 8 * MIB;
        let mut s = DfsSim::with_config(cfg, BugSet::None);
        let big = DfsRequest::Create {
            path: "/big".into(),
            size: 64 * MIB,
        };
        assert!(s.execute(&big).is_err());
        assert_eq!(s.namespace().file_count(), 0);
        assert_eq!(s.cluster.total_used(), 0);
    }

    fn fault_at(at_ms: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at_ms, kind }
    }

    use crate::faults::FaultEvent;

    #[test]
    fn lossy_kept_survives_huge_fragments() {
        // Regression: the old `bytes * (100 - pct) / 100` overflowed u64
        // for any fragment above u64::MAX / 100.
        let boundary = u64::MAX / 100 + 1;
        assert_eq!(lossy_kept(boundary, 0), boundary);
        assert_eq!(lossy_kept(u64::MAX, 0), u64::MAX);
        assert_eq!(lossy_kept(u64::MAX, 100), 0);
        assert_eq!(
            lossy_kept(u64::MAX, 30),
            (u64::MAX as u128 * 70 / 100) as u64
        );
        assert_eq!(lossy_kept(200, 25), 150);
    }

    #[test]
    fn crash_fault_fires_on_schedule_and_persists_across_reset() {
        let mut s = sim(Flavor::Hdfs);
        s.set_fault_plan(FaultPlan::new(vec![fault_at(
            120_000,
            FaultKind::CrashStorage { index: 2 },
        )]));
        let before = s.cluster().online_storage().len();
        s.tick(60_000);
        assert_eq!(s.cluster().online_storage().len(), before, "not due yet");
        s.tick(120_000);
        assert_eq!(s.cluster().online_storage().len(), before - 1);
        assert_eq!(s.crashed_nodes().len(), 1);
        // A redeploy does not fix crashed hardware.
        s.reset();
        assert_eq!(s.cluster().online_storage().len(), before - 1);
        assert_eq!(s.crashed_nodes().len(), 1);
    }

    #[test]
    fn restart_fault_brings_crashed_node_back() {
        let mut s = sim(Flavor::Hdfs);
        s.set_fault_plan(FaultPlan::new(vec![
            fault_at(60_000, FaultKind::CrashStorage { index: 0 }),
            fault_at(120_000, FaultKind::RestartStorage { index: 0 }),
        ]));
        let before = s.cluster().online_storage().len();
        s.tick(70_000);
        assert_eq!(s.cluster().online_storage().len(), before - 1);
        s.tick(60_000);
        assert_eq!(s.cluster().online_storage().len(), before);
        assert!(s.crashed_nodes().is_empty());
        s.reset();
        assert_eq!(
            s.cluster().online_storage().len(),
            before,
            "a restarted node must not be re-crashed on reset"
        );
    }

    #[test]
    fn slow_mgmt_fault_multiplies_latency_and_cpu() {
        let mut s = sim(Flavor::Hdfs); // round robin over 2 mgmt nodes
        s.set_fault_plan(FaultPlan::new(vec![fault_at(
            0,
            FaultKind::SlowMgmt {
                index: 0,
                factor: 6,
            },
        )]));
        s.tick(1_000);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: 0,
        })
        .unwrap();
        let mut latencies: Vec<u64> = (0..2)
            .map(|_| {
                s.execute(&DfsRequest::Open { path: "/a".into() })
                    .unwrap()
                    .latency_ms
            })
            .collect();
        latencies.sort_unstable();
        assert_eq!(
            latencies,
            vec![300, 1_800],
            "alternate requests hit the 6x-slow gateway"
        );
        let snap = s.load_snapshot();
        let cpu: Vec<f64> = snap
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::Management)
            .map(|n| n.cpu)
            .collect();
        let max = cpu.iter().cloned().fold(f64::MIN, f64::max);
        let min = cpu.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > min * 2.5,
            "slow node must burn visibly more CPU: {cpu:?}"
        );
    }

    #[test]
    fn lossy_migration_fault_sheds_bytes() {
        let mut s = sim(Flavor::CephFs);
        s.set_fault_plan(FaultPlan::new(vec![fault_at(
            0,
            FaultKind::LossyMigration { pct: 40 },
        )]));
        for i in 0..40 {
            s.execute(&DfsRequest::Create {
                path: format!("/f{i}"),
                size: 16 * MIB,
            })
            .unwrap();
        }
        s.execute(&DfsRequest::AddStorageNode {
            volumes: 2,
            capacity: 4 << 30,
        })
        .unwrap();
        for _ in 0..200 {
            s.tick(2_000);
        }
        assert!(s.stats().migrations > 0);
        assert!(
            s.bytes_lost() > 0,
            "lossy migrations must lose bytes once the balancer moves data"
        );
    }

    #[test]
    fn disk_full_fault_collapses_free_space() {
        let mut s = DfsSim::new(Flavor::Hdfs, BugSet::None); // preloaded
        s.set_fault_plan(FaultPlan::new(vec![fault_at(
            0,
            FaultKind::DiskFull { index: 0 },
        )]));
        let victim = s.cluster().online_storage()[0];
        s.tick(1_000);
        let free: Bytes = s.cluster().storage[&victim]
            .volumes
            .iter()
            .map(|v| v.free())
            .sum();
        assert_eq!(free, 0, "every volume on the victim must report full");
        // The forced-full disk persists across a redeploy.
        s.reset();
        let free: Bytes = s.cluster().storage[&victim]
            .volumes
            .iter()
            .map(|v| v.free())
            .sum();
        assert_eq!(free, 0);
    }

    #[test]
    fn partitioned_mgmt_node_takes_no_traffic_and_leaves_report() {
        let mut s = sim(Flavor::Hdfs);
        s.set_fault_plan(FaultPlan::new(vec![
            fault_at(1_000, FaultKind::PartitionMgmt { index: 0 }),
            fault_at(600_000, FaultKind::Heal),
        ]));
        s.tick(2_000);
        let snap = s.load_snapshot();
        let mgmt = snap
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::Management)
            .count();
        assert_eq!(mgmt, 1, "the partitioned gateway drops out of the report");
        // The cluster still serves requests through the surviving gateway.
        s.execute(&DfsRequest::Mkdir { path: "/d".into() }).unwrap();
        s.tick(700_000);
        let snap = s.load_snapshot();
        let mgmt = snap
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::Management)
            .count();
        assert_eq!(mgmt, 2, "healing restores the partitioned gateway");
    }

    #[test]
    fn all_mgmt_partitioned_means_cluster_down() {
        let mut s = sim(Flavor::Hdfs);
        s.set_fault_plan(FaultPlan::new(vec![
            fault_at(1_000, FaultKind::PartitionMgmt { index: 0 }),
            fault_at(1_000, FaultKind::PartitionMgmt { index: 0 }),
        ]));
        s.tick(2_000);
        let err = s.execute(&DfsRequest::Open { path: "/x".into() });
        assert!(matches!(err, Err(SimError::ClusterDown)));
    }

    #[test]
    fn slow_storage_fault_stalls_migrations_without_dropping_them() {
        let mut s = sim(Flavor::GlusterFs);
        for i in 0..30 {
            s.execute(&DfsRequest::Create {
                path: format!("/f{i}"),
                size: 16 * MIB,
            })
            .unwrap();
        }
        s.execute(&DfsRequest::AddStorageNode {
            volumes: 2,
            capacity: 4 << 30,
        })
        .unwrap();
        // Every storage node is slow: all moves stall but still complete.
        let plan: Vec<FaultEvent> = (0..s.cluster().online_storage().len() as u32)
            .map(|i| {
                fault_at(
                    0,
                    FaultKind::SlowStorage {
                        index: i,
                        factor: 4,
                    },
                )
            })
            .collect();
        s.set_fault_plan(FaultPlan::new(plan));
        s.rebalance();
        let mut guard = 0;
        while s.rebalance_status() == RebalanceStatus::Running && guard < 10_000 {
            s.tick(1_000);
            guard += 1;
        }
        assert_eq!(s.rebalance_status(), RebalanceStatus::Done);
        assert!(s.stats().migrations > 0);
    }

    /// The uncached reference for one filtered plan: `place` block by block
    /// on `views`, bumping the copy's fill after each block. Returns the
    /// bytes planned per volume, or `None` when a block finds no room.
    fn reference_plan(
        s: &DfsSim,
        views: &mut [VolumeView],
        key: u64,
        size: Bytes,
    ) -> Option<BTreeMap<VolumeId, Bytes>> {
        let block = s.effective_block(size);
        let mut planned = BTreeMap::new();
        let (mut remaining, mut block_idx) = (size, 0);
        while remaining > 0 {
            let b = block.min(remaining);
            let placed = s
                .placement
                .place(mix(key, block_idx), b, s.cfg.replicas, views);
            if placed.is_empty() {
                return None;
            }
            for vol in placed {
                *planned.entry(vol).or_insert(0) += b;
                views.iter_mut().find(|v| v.volume == vol).unwrap().used += b;
            }
            remaining -= b;
            block_idx += 1;
        }
        Some(planned)
    }

    #[test]
    fn filtered_plans_match_the_uncached_placer() {
        use crate::bugs::{FailureKind, Gate, Trigger};
        let hotspot = |platform| BugSpec {
            id: "HOT-1",
            platform,
            kind: FailureKind::ImbalancedStorage,
            title: "test bug: funnels every placement after the first create",
            trigger: Trigger::op_count(vec![OpClass::Create], 1, 1),
            effect: Effect::HotspotPlacement { pct: 100 },
            gate: Gate::None,
            is_new: true,
        };
        for flavor in Flavor::all() {
            for partition in [true, false] {
                // Small volumes, so the requests below fill what the filter
                // leaves visible, and no balancer round (no request changes
                // membership), so new replicas stay where they were placed.
                let mut cfg = flavor.config();
                cfg.base_fill = 0.0;
                cfg.volume_capacity = 256 * MIB;
                cfg.balancer = BalancerStyle::OnMembership;
                let (bugs, faults) = if partition {
                    let hide = FaultKind::PartitionStorage { index: 0 };
                    (BugSet::None, vec![fault_at(0, hide)])
                } else {
                    (BugSet::Custom(vec![hotspot(flavor)]), Vec::new())
                };
                let mut s = DfsSim::with_config(cfg, bugs);
                // Uneven capacities give the CRUSH weight table a view
                // order to get wrong.
                for volume in s.cluster.volume_views().iter().map(|v| v.volume).step_by(3) {
                    let delta = 16 * MIB;
                    s.execute(&DfsRequest::ReduceVolume { volume, delta })
                        .unwrap();
                }
                s.set_fault_plan(FaultPlan::new(faults));
                // Placed on the canonical views, which warms the canonical
                // cache; the partition or the hotspot bug fires after it.
                s.execute(&DfsRequest::Create {
                    path: "/warm".into(),
                    size: MIB,
                })
                .unwrap();
                let victim = s.bugs.active_effects().find_map(|(_, v)| v);
                assert_eq!(victim.is_none(), partition, "{flavor:?}");
                let (mut placed, mut refused, mut multi_block) = (0, 0, 0);
                for round in 0..10u64 {
                    let path = format!("/f{round}");
                    let size = [1, 9, 40, 100, 3, 64][round as usize % 6] * MIB;
                    let delta = [130, 150, 200][round as usize % 3] * MIB;
                    // A create, then an append that grows the file past the
                    // GlusterFS shard threshold, so it is placed block by
                    // block on every flavor.
                    for append in [false, true] {
                        let (req, key, bytes) = if append {
                            let req = DfsRequest::Append {
                                path: path.clone(),
                                delta,
                            };
                            (req, mix(hash_str(&path), size), delta)
                        } else {
                            let req = DfsRequest::Create {
                                path: path.clone(),
                                size,
                            };
                            (req, hash_str(&path), size)
                        };
                        let replicas = |s: &DfsSim| {
                            let fid = s.ns.open(&path).ok()?.0;
                            Some(s.cluster.files().get(&fid)?.replicas.clone())
                        };
                        let before = match (append, replicas(&s)) {
                            (false, _) => 0,
                            (true, Some(r)) => r.len(),
                            // The create was refused; nothing to append to.
                            (true, None) => continue,
                        };
                        let mut views = s.cluster.volume_views();
                        let all = views.len();
                        views.retain(|v| !s.faults.is_partitioned(v.node));
                        views.retain(|v| victim.is_none_or(|n| v.node == n));
                        assert!(views.len() < all, "{flavor:?}: no volume hidden");
                        let expected = reference_plan(&s, &mut views, key, bytes);
                        multi_block += u64::from(s.effective_block(bytes) < bytes);
                        let result = s.execute(&req);
                        let mut added = BTreeMap::new();
                        for r in replicas(&s).unwrap_or_default().iter().skip(before) {
                            *added.entry(r.volume).or_insert(0) += r.bytes;
                        }
                        // A refused request must fail for space and store
                        // nothing.
                        let got = match result {
                            Ok(_) => Some(added),
                            Err(SimError::OutOfSpace { .. }) if added.is_empty() => None,
                            Err(e) => panic!("{flavor:?} {req:?}: {e:?}, added {added:?}"),
                        };
                        assert_eq!(got, expected, "{flavor:?} {req:?}");
                        placed += u64::from(got.is_some());
                        refused += u64::from(got.is_none());
                    }
                }
                assert!(
                    placed > 0 && refused > 0,
                    "{flavor:?}: {placed} placed, {refused} refused"
                );
                assert!(multi_block > 0, "{flavor:?}: no multi-block plan");
                assert_eq!(s.stats().migrations, 0, "{flavor:?}");
            }
        }
    }

    /// A broad fingerprint of observable simulator state; two sims with
    /// equal fingerprints are indistinguishable to the fuzzing harness.
    fn fingerprint(s: &DfsSim) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            s.now(),
            s.namespace().files(),
            s.cluster().mgmt,
            s.cluster().storage,
            s.cluster().files(),
            s.crashed_nodes(),
            s.stats(),
        )
    }

    /// A workload mixing data ops, topology churn, a rebalance and clock
    /// ticks — the full surface the journal has to cover.
    fn churn(s: &mut DfsSim, tag: u32) {
        for i in 0..8 {
            let _ = s.execute(&DfsRequest::Create {
                path: format!("/c{tag}_{i}"),
                size: (4 + i) * MIB,
            });
        }
        let _ = s.execute(&DfsRequest::AddStorageNode {
            volumes: 2,
            capacity: 2 << 30,
        });
        let _ = s.execute(&DfsRequest::Rename {
            from: format!("/c{tag}_0"),
            to: format!("/r{tag}"),
        });
        let _ = s.execute(&DfsRequest::Delete {
            path: format!("/c{tag}_1"),
        });
        s.rebalance();
        let mut guard = 0;
        while s.rebalance_status() == RebalanceStatus::Running && guard < 5_000 {
            s.tick(1_000);
            guard += 1;
        }
    }

    #[test]
    fn fork_restore_roundtrip_under_faults() {
        let mut s = DfsSim::new(Flavor::GlusterFs, BugSet::None);
        s.set_fault_plan(FaultPlan::new(vec![
            fault_at(2_000, FaultKind::CrashStorage { index: 1 }),
            fault_at(
                4_000,
                FaultKind::SlowStorage {
                    index: 0,
                    factor: 3,
                },
            ),
        ]));
        churn(&mut s, 0);
        let before = fingerprint(&s);
        let mark = s.fork();
        churn(&mut s, 1);
        assert_ne!(fingerprint(&s), before, "churn must change state");
        assert!(s.restore(mark));
        assert_eq!(fingerprint(&s), before, "restore must rewind exactly");
        // The mark survives its own restore and can be rewound to again.
        churn(&mut s, 2);
        assert!(s.restore(mark));
        assert_eq!(fingerprint(&s), before);
    }

    /// Restoring and replaying the same suffix reproduces the state a
    /// straight-line run reaches, including with placement caching on —
    /// the generation-tag invalidation must drop rings built by the
    /// abandoned branch — and every armed bug's trigger progress, fire
    /// time and victim.
    #[test]
    fn forked_suffix_replay_is_bit_identical() {
        let straight = {
            let mut s = DfsSim::new(Flavor::CephFs, BugSet::All);
            churn(&mut s, 0);
            churn(&mut s, 2);
            (
                fingerprint(&s),
                s.coverage_count(),
                format!("{:?}", s.oracle_bugs()),
            )
        };
        let mut s = DfsSim::new(Flavor::CephFs, BugSet::All);
        churn(&mut s, 0);
        let mark = s.fork();
        churn(&mut s, 1); // abandoned branch (different topology/rings)
        assert!(s.restore(mark));
        churn(&mut s, 2);
        assert_eq!(fingerprint(&s), straight.0);
        assert_eq!(format!("{:?}", s.oracle_bugs()), straight.2);
        // Coverage is monotone: the abandoned branch may only have added
        // branches on top of the straight-line set.
        assert!(s.coverage_count() >= straight.1);
    }

    #[test]
    fn restore_kills_deeper_marks_and_release_stops_journaling() {
        let mut s = sim(Flavor::Hdfs);
        let a = s.fork();
        let _ = s.execute(&DfsRequest::Create {
            path: "/x".into(),
            size: MIB,
        });
        let b = s.fork();
        assert_eq!(s.fork_count(), 2);
        assert!(s.restore(a));
        assert!(!s.restore(b), "restore(a) must invalidate deeper mark b");
        assert_eq!(s.fork_count(), 1);
        s.release(a);
        assert_eq!(s.fork_count(), 0);
        assert!(!s.restore(a), "released marks are gone");
    }

    #[test]
    fn reset_discards_fork_marks() {
        let mut s = DfsSim::new(Flavor::LeoFs, BugSet::None);
        let mark = s.fork();
        let _ = s.execute(&DfsRequest::Create {
            path: "/x".into(),
            size: MIB,
        });
        s.reset();
        assert!(!s.restore(mark), "reset abandons the forked lineage");
        assert_eq!(s.fork_count(), 0);
    }

    #[test]
    fn state_audit_stays_clean_under_fork_restore_churn() {
        // Every restore below also runs the audit implicitly (debug
        // builds); the explicit calls document the contract and keep the
        // test meaningful under --release.
        let mut s = DfsSim::new(Flavor::GlusterFs, BugSet::All);
        for i in 0..20 {
            let _ = s.execute(&DfsRequest::Create {
                path: format!("/seed{i}"),
                size: (1 + i as u64 % 7) * MIB,
            });
        }
        s.audit_state().expect("pre-fork state must audit clean");
        let mark = s.fork();
        for i in 0..30 {
            let _ = s.execute(&DfsRequest::Create {
                path: format!("/fork{i}"),
                size: (1 + i as u64 % 5) * MIB,
            });
            if i % 3 == 0 {
                let _ = s.execute(&DfsRequest::Delete {
                    path: format!("/seed{}", i % 20),
                });
            }
        }
        assert!(s.restore(mark));
        s.audit_state().expect("restored state must audit clean");
        for i in 0..10 {
            let _ = s.execute(&DfsRequest::Overwrite {
                path: format!("/seed{i}"),
                size: 2 * MIB,
            });
        }
        assert!(s.restore(mark));
        s.audit_state()
            .expect("second restore of the same mark must audit clean");
    }

    #[test]
    fn restore_to_base_matches_a_fresh_deploy() {
        // A reused sim, rewound to base, must be indistinguishable from a
        // brand-new one running the same workload — including coverage,
        // stats, and the clock, none of which fork marks capture.
        let mut reused = DfsSim::new(Flavor::GlusterFs, BugSet::All);
        reused.mark_base();
        churn(&mut reused, 0);
        assert!(reused.coverage_count() > 0, "churn must produce coverage");
        reused.restore_to_base();

        let mut fresh = DfsSim::new(Flavor::GlusterFs, BugSet::All);
        assert_eq!(fingerprint(&reused), fingerprint(&fresh));
        assert_eq!(reused.coverage_count(), fresh.coverage_count());

        churn(&mut reused, 1);
        churn(&mut fresh, 1);
        assert_eq!(
            fingerprint(&reused),
            fingerprint(&fresh),
            "replay after base restore must be bit-identical to fresh"
        );
        assert_eq!(reused.coverage_count(), fresh.coverage_count());
    }

    #[test]
    fn restore_to_base_survives_reset_and_kills_fork_marks() {
        let mut s = DfsSim::new(Flavor::Hdfs, BugSet::None);
        s.mark_base();
        let base = fingerprint(&s);
        churn(&mut s, 0);
        let mark = s.fork();
        churn(&mut s, 1);
        s.reset(); // kills `mark`, keeps the base
        assert!(!s.restore(mark));
        churn(&mut s, 2);
        s.restore_to_base();
        assert_eq!(fingerprint(&s), base, "base must outlive resets");
        assert_eq!(s.fork_count(), 0);
        // And again: the base is reusable indefinitely.
        churn(&mut s, 3);
        s.restore_to_base();
        assert_eq!(fingerprint(&s), base);
    }

    #[test]
    fn restore_to_base_clears_the_fault_plan() {
        let mut s = DfsSim::new(Flavor::CephFs, BugSet::None);
        s.mark_base();
        s.set_fault_plan(FaultPlan::new(vec![fault_at(
            1_000,
            FaultKind::CrashStorage { index: 0 },
        )]));
        churn(&mut s, 0);
        s.restore_to_base();
        assert!(
            !s.fault_injector().any(),
            "base restore must drop the per-cell fault plan"
        );
        assert!(s.crashed_nodes().is_empty());
    }

    #[test]
    fn journal_records_each_touched_key_once() {
        let mut s = sim(Flavor::Hdfs);
        s.execute(&DfsRequest::Create {
            path: "/f".into(),
            size: 8 * MIB,
        })
        .unwrap();
        s.mark_base();
        for i in 0..1_000 {
            s.execute(&DfsRequest::Overwrite {
                path: "/f".into(),
                size: (1 + i % 8) * MIB,
            })
            .unwrap();
        }
        assert_eq!(s.cluster.journal_len(), 1, "one file-map record");
        assert_eq!(s.ns.journal_len(), 1, "one namespace record");
    }

    // ------------------------------------------------------------------
    // Clone reference: the `reset` and `restore_to_base` that cloned the
    // deployed state before mark 0 replaced them, kept as the oracle the
    // journal rewinds are held to
    // ------------------------------------------------------------------

    /// What the clone-based base restore kept beyond the deployed
    /// namespace/cluster: the state a reset does not re-establish.
    struct CloneBase {
        clock: SimClock,
        coverage: CoverageModel,
        stats: SimStats,
        check_timer: Option<PeriodicTimer>,
        migrate_timer: PeriodicTimer,
    }

    impl CloneBase {
        fn capture(s: &DfsSim) -> Self {
            CloneBase {
                clock: s.clock.clone(),
                coverage: s.coverage.clone(),
                stats: s.stats,
                check_timer: s.check_timer.clone(),
                migrate_timer: s.migrate_timer.clone(),
            }
        }
    }

    /// The clone-based `reset`. `deployed` is a fresh deploy of the same
    /// configuration, standing in for the deploy-time clone.
    fn clone_reset(s: &mut DfsSim, deployed: &DfsSim) {
        s.marks.truncate(1);
        s.ns.clone_from(&deployed.ns);
        s.cluster.clone_from(&deployed.cluster);
        s.placement_cache = PlacementCache::new();
        s.balancer = Balancer::new(s.cfg.balance_threshold);
        s.bugs.rearm();
        s.hash_cache.clear();
        s.crashed.clear();
        s.crash = CrashRuntime::default();
        if s.faults.any() {
            let mgmt: Vec<NodeId> = s.cluster.mgmt.keys().copied().collect();
            let storage: Vec<NodeId> = s.cluster.storage.keys().copied().collect();
            s.faults.remap_nodes(&mgmt, &storage);
        }
        for id in s.faults.crashed().to_vec() {
            s.cluster.set_offline(id);
            s.crashed.push(id);
        }
        for id in s.faults.disk_full().to_vec() {
            s.cluster.set_volumes_full(id);
        }
        s.prev_kind = None;
        s.prev2_kind = None;
        s.rr_counter = 0;
        s.last_variance = (1.0, 1.0, 1.0);
        let now = s.clock.now();
        if let Some(t) = s.check_timer.as_mut() {
            t.reset(now);
        }
        s.migrate_timer.reset(now);
        s.stats.resets += 1;
        s.clock.advance(60_000);
    }

    /// The clone-based `restore_to_base`.
    fn clone_restore_to_base(s: &mut DfsSim, deployed: &DfsSim, base: &CloneBase) {
        s.marks.truncate(1);
        s.ns.clone_from(&deployed.ns);
        s.cluster.clone_from(&deployed.cluster);
        s.placement_cache = PlacementCache::new();
        s.balancer = Balancer::new(s.cfg.balance_threshold);
        s.bugs.rearm();
        s.hash_cache.clear();
        s.crashed.clear();
        s.faults = FaultInjector::default();
        s.prev_kind = None;
        s.prev2_kind = None;
        s.rr_counter = 0;
        s.last_variance = (1.0, 1.0, 1.0);
        s.clock = base.clock.clone();
        s.coverage.clone_from(&base.coverage);
        s.stats = base.stats;
        s.check_timer.clone_from(&base.check_timer);
        s.migrate_timer.clone_from(&base.migrate_timer);
        s.crash = CrashRuntime::default();
    }

    /// Everything a rewind restores, beyond [`fingerprint`]: coverage, the
    /// fault injector, bug runtimes, the balancer and the small DFS state.
    fn rewind_state(s: &DfsSim) -> String {
        format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            fingerprint(s),
            s.namespace().directories(),
            s.coverage(),
            s.fault_injector(),
            s.oracle_bugs(),
            s.balancer,
            s.hash_cache,
            (s.prev_kind, s.prev2_kind, s.rr_counter, s.last_variance),
            s.check_timer,
            s.migrate_timer,
            s.crash,
        )
    }

    /// A seeded mix of data, namespace and topology operations over about
    /// a quarter hour of virtual time, ending in a rebalance window, so
    /// each seed touches its own keys and the fault plans fire between
    /// rounds.
    fn seeded_churn(s: &mut DfsSim, seed: u64, round: u64) {
        for i in 0..40 {
            let r = crate::hashing::mix(seed, round << 32 | i);
            let path = format!("/s{}", r % 12);
            let req = match (r >> 8) % 16 {
                0..=4 => DfsRequest::Create {
                    path,
                    size: (1 + (r >> 16) % 8) * MIB,
                },
                5 | 6 => DfsRequest::Overwrite {
                    path,
                    size: (1 + (r >> 16) % 8) * MIB,
                },
                7 => DfsRequest::Append { path, delta: MIB },
                8 | 9 => DfsRequest::Delete { path },
                10 => DfsRequest::Rename {
                    from: path,
                    to: format!("/d{}/s{}", (r >> 16) % 3, (r >> 20) % 12),
                },
                11 => DfsRequest::Mkdir {
                    path: format!("/d{}", (r >> 16) % 3),
                },
                12 => DfsRequest::AddStorageNode {
                    volumes: 2,
                    capacity: 2 << 30,
                },
                13 => {
                    let online = s.cluster().online_storage();
                    let Some(&node) = online.get((r >> 16) as usize % online.len().max(1)) else {
                        continue;
                    };
                    DfsRequest::RemoveStorageNode { node }
                }
                _ => DfsRequest::Open { path },
            };
            let _ = s.execute(&req);
            s.tick(20_000);
        }
        s.rebalance();
        for _ in 0..200 {
            if s.rebalance_status() != RebalanceStatus::Running {
                break;
            }
            s.tick(1_000);
        }
    }

    #[test]
    fn clone_reference_agrees_with_journal_rewinds() {
        // Resets taken while fault-crashed or forced-full machines exist,
        // per profile: the damage re-application must be exercised.
        let mut damaged_resets = BTreeMap::new();
        let mut count_damage = |profile: &'static str, s: &DfsSim| {
            let faults = s.fault_injector();
            let damaged = !faults.crashed().is_empty() || !faults.disk_full().is_empty();
            *damaged_resets.entry(profile).or_insert(0) += u32::from(damaged);
        };
        for flavor in Flavor::all() {
            let deployed = DfsSim::new(flavor, BugSet::All);
            for profile in ["none", "crash", "diskfull", "chaos"] {
                for seed in [1, 2] {
                    let at = format!("{flavor:?}/{profile}/seed {seed}");
                    let plan = FaultPlan::named(profile, seed).expect("known profile");
                    let mut journal = DfsSim::new(flavor, BugSet::All);
                    journal.set_runtime_audit(true);
                    let mut reference = DfsSim::new(flavor, BugSet::All);
                    let base = CloneBase::capture(&reference);
                    for s in [&mut journal, &mut reference] {
                        s.set_fault_plan(plan.clone());
                        seeded_churn(s, seed, 0);
                    }
                    count_damage(profile, &journal);
                    journal.reset();
                    clone_reset(&mut reference, &deployed);
                    assert_eq!(
                        rewind_state(&journal),
                        rewind_state(&reference),
                        "{at}: reset"
                    );

                    for s in [&mut journal, &mut reference] {
                        seeded_churn(s, seed, 1);
                        s.fork();
                        seeded_churn(s, seed, 2);
                        s.fork();
                        seeded_churn(s, seed, 3);
                    }
                    count_damage(profile, &journal);
                    journal.reset();
                    clone_reset(&mut reference, &deployed);
                    assert_eq!(journal.fork_count(), 0, "{at}");
                    assert_eq!(
                        rewind_state(&journal),
                        rewind_state(&reference),
                        "{at}: reset with fork marks live"
                    );

                    for s in [&mut journal, &mut reference] {
                        seeded_churn(s, seed, 4);
                    }
                    journal.restore_to_base();
                    clone_restore_to_base(&mut reference, &deployed, &base);
                    assert_eq!(
                        rewind_state(&journal),
                        rewind_state(&reference),
                        "{at}: restore_to_base"
                    );

                    // Hidden state (placement rings, trigger progress)
                    // would surface once both sims run on.
                    for s in [&mut journal, &mut reference] {
                        s.set_fault_plan(plan.clone());
                        seeded_churn(s, seed, 5);
                    }
                    assert_eq!(
                        rewind_state(&journal),
                        rewind_state(&reference),
                        "{at}: run after restore_to_base"
                    );
                }
            }
        }
        assert_eq!(damaged_resets["none"], 0);
        for profile in ["crash", "diskfull", "chaos"] {
            assert!(
                damaged_resets[profile] > 0,
                "no reset under {profile} saw machine damage: {damaged_resets:?}"
            );
        }
    }

    // ------------------------------------------------------------------
    // Crash-point exploration
    // ------------------------------------------------------------------

    /// A Gluster sim with enough queued imbalance that a rebalance window
    /// executes a healthy number of migrations to crash inside.
    fn crashable_sim() -> DfsSim {
        let mut s = sim(Flavor::GlusterFs);
        for i in 0..30 {
            s.execute(&DfsRequest::Create {
                path: format!("/f{i}"),
                size: 16 * MIB,
            })
            .unwrap();
        }
        s.execute(&DfsRequest::AddStorageNode {
            volumes: 2,
            capacity: 4 << 30,
        })
        .unwrap();
        s
    }

    /// Starts a rebalance and drives a fixed window of fixed-size ticks —
    /// identical driving on every run, so crash-point indices line up
    /// between an enumeration pass and a crash-at pass. Stops early once
    /// an armed crash fires.
    fn drive_window(s: &mut DfsSim, ticks: u32) {
        s.rebalance();
        for _ in 0..ticks {
            if s.crashed_in_flight().is_some() {
                return;
            }
            s.tick(1_500);
        }
    }

    /// Enumerates the window, re-runs it with a crash armed at the first
    /// point whose label starts with `step`, recovers, and returns the
    /// oracle verdict.
    fn crash_at_first(step: &str) -> Result<(), CrashViolation> {
        let mut s = crashable_sim();
        let mark = s.fork();
        s.arm_crash_enumeration();
        drive_window(&mut s, 60);
        let labels = s.disarm_crash();
        let k = labels
            .iter()
            .position(|l| l.starts_with(step))
            .unwrap_or_else(|| panic!("no '{step}' point in {labels:?}"));
        assert!(s.restore(mark));
        s.arm_crash_at(k as u64);
        drive_window(&mut s, 60);
        let inf = s.recover_crashed_machine().expect("armed crash must fire");
        assert!(
            inf.label().starts_with(step),
            "point {k} replayed as '{}', expected a '{step}' step",
            inf.label()
        );
        s.check_crash_invariants()
    }

    #[test]
    fn armed_enumeration_is_behaviour_transparent() {
        // Both runs take the same micro-steps; capturing the labels of
        // the crash points passed must not change any state.
        let mut plain = crashable_sim();
        let mut armed = crashable_sim();
        armed.arm_crash_enumeration();
        drive_window(&mut plain, 60);
        drive_window(&mut armed, 60);
        assert_eq!(
            plain.crash_points_seen(),
            0,
            "disarmed points count nothing"
        );
        let labels = armed.disarm_crash();
        assert!(!labels.is_empty(), "the window must pass crash points");
        assert_eq!(fingerprint(&plain), fingerprint(&armed));
        assert_eq!(plain.coverage_count(), armed.coverage_count());
        // All five micro-step shapes appear in a real window.
        for step in ["plan", "copy", "commit-swap", "commit-account", "cleanup"] {
            assert!(
                labels.iter().any(|l| l.starts_with(step)),
                "no '{step}' point in {labels:?}"
            );
        }
    }

    #[test]
    fn crash_mid_copy_leaves_an_orphan_replica() {
        let v = crash_at_first("copy").unwrap_err();
        assert_eq!(v.class, CrashClass::OrphanReplica, "got: {v}");
    }

    #[test]
    fn crash_between_commit_and_account_double_counts_blocks() {
        let v = crash_at_first("commit-swap").unwrap_err();
        assert_eq!(v.class, CrashClass::DoubleCountedBlocks, "got: {v}");
    }

    #[test]
    fn plan_and_cleanup_crashes_recover_clean() {
        for step in ["plan", "cleanup"] {
            let verdict = crash_at_first(step);
            assert!(
                verdict.is_ok(),
                "'{step}' crash must recover clean: {verdict:?}"
            );
        }
    }

    #[test]
    fn crash_after_commit_account_loses_a_linkfile_in_the_window() {
        // The lost-linkfile class only manifests on moves whose post-move
        // layout requires a different linkfile than the pre-move one, so
        // scan every commit-account point in the window — exactly what
        // the bounded explorer does.
        let mut s = crashable_sim();
        let mark = s.fork();
        s.arm_crash_enumeration();
        drive_window(&mut s, 60);
        let labels = s.disarm_crash();
        assert!(s.restore(mark));
        let mut found = false;
        for (k, label) in labels.iter().enumerate() {
            if !label.starts_with("commit-account") {
                continue;
            }
            s.arm_crash_at(k as u64);
            drive_window(&mut s, 60);
            s.recover_crashed_machine().expect("armed crash must fire");
            match s.check_crash_invariants() {
                Err(v) if v.class == CrashClass::LostLinkfile => found = true,
                Err(v) => panic!("unexpected violation at point {k}: {v}"),
                Ok(()) => {}
            }
            assert!(s.restore(mark));
            if found {
                break;
            }
        }
        assert!(
            found,
            "some commit-account crash in the window must lose a linkfile"
        );
    }

    // ------------------------------------------------------------------
    // Release-mode oracle (the audit must not depend on debug_assertions;
    // scripts/ci.sh re-runs these tests under `cargo test --release`)
    // ------------------------------------------------------------------

    #[test]
    fn release_oracle_catches_counter_drift() {
        let mut s = sim(Flavor::Hdfs);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: 8 * MIB,
        })
        .unwrap();
        s.audit_state().expect("fresh state audits clean");
        // Bypass the journaling accessors — the corruption a buggy
        // recovery would leave behind.
        let node = s.cluster.online_storage()[0];
        // detlint:allow(journal-coverage): deliberate counter corruption to exercise the release-mode auditor
        s.cluster.storage.get_mut(&node).unwrap().volumes[0].used += 1;
        let err = s.audit_state().unwrap_err();
        assert!(err.contains("file table"), "unexpected message: {err}");
    }

    #[test]
    fn release_oracle_catches_ownership_divergence() {
        let mut s = sim(Flavor::CephFs);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: 8 * MIB,
        })
        .unwrap();
        let vid = s.cluster.volume_owner.keys().next().unwrap();
        // detlint:allow(journal-coverage): deliberate ownership corruption to exercise the release-mode auditor
        s.cluster.volume_owner.remove(&vid);
        assert!(s.audit_state().is_err());
    }

    #[test]
    fn release_oracle_catches_tracker_max_drift() {
        let mut s = sim(Flavor::GlusterFs);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: 8 * MIB,
        })
        .unwrap();
        s.audit_state().expect("fresh state audits clean");
        // Leaves, sums and count stay right; only the max tree's root is
        // stale, so only the tracker equality's maximum can see it.
        s.cluster.util_stats_mut().corrupt_root_for_test();
        let err = s.audit_state().unwrap_err();
        assert!(
            err.contains("utilization stats drifted"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn runtime_audit_flag_defaults_by_profile_and_toggles() {
        let mut s = sim(Flavor::Hdfs);
        assert_eq!(
            s.runtime_audit_enabled(),
            cfg!(debug_assertions),
            "debug builds audit by default; release builds opt in"
        );
        s.set_runtime_audit(true);
        s.execute(&DfsRequest::Create {
            path: "/a".into(),
            size: MIB,
        })
        .unwrap();
        // With the audit forced on, a fork/restore cycle passes it in any
        // build profile.
        let mark = s.fork();
        s.tick(1_000);
        assert!(s.restore(mark));
        s.set_runtime_audit(false);
        assert!(!s.runtime_audit_enabled());
    }
}
