//! The storage load balancer: collector, calculator, planner and executor.
//!
//! This implements the generic pipeline of Figure 1: a *Load Collector*
//! gathers per-node usage, a *Load Calculator* decides whether the
//! distribution exceeds the flavor threshold, a *Migration Planner*
//! computes file moves from over- to under-utilized nodes, and a
//! *Migration Executor* applies them a few moves per virtual time step.
//! Triggered bug effects hook into the planner and executor exactly where
//! the corresponding real bugs lived (plan filtering, lossy moves,
//! misreported completion).

// detlint:allow-file(float-accum): every reduction here (fill means, max
// fills) folds over a Vec built from `Cluster::node_fill`, which iterates
// BTreeMap node ids in ascending order — the accumulation order is pinned.

use crate::cluster::Cluster;
use crate::types::{Bytes, FileId, NodeId, VolumeId};
use std::collections::VecDeque;

/// Movable replicas on one donor node: `(file, volume, bytes)` triples.
type DonorReplicas = Vec<(FileId, VolumeId, Bytes)>;

/// One planned file move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationMove {
    /// File whose replica moves.
    pub file: FileId,
    /// Source volume.
    pub from: VolumeId,
    /// Source node (for effect hooks and accounting).
    pub from_node: NodeId,
    /// Destination volume.
    pub to: VolumeId,
    /// Destination node.
    pub to_node: NodeId,
    /// Replica bytes to move.
    pub bytes: Bytes,
}

/// Whether the balancer is idle or executing a migration plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalancePhase {
    /// No rebalance in flight.
    Idle,
    /// A migration plan is being executed.
    Migrating,
}

/// Externally visible rebalance status (the paper's `rebalance state` API).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceStatus {
    /// The balancer is idle and the last round (if any) completed.
    Done,
    /// A rebalance round is still migrating data.
    Running,
}

/// Balancer state for one simulated DFS.
#[derive(Debug, Clone)]
pub struct Balancer {
    /// Imbalance threshold `t` (fraction over the mean).
    pub threshold: f64,
    /// Current phase.
    pub phase: RebalancePhase,
    /// Remaining moves of the in-flight plan.
    pub queue: VecDeque<MigrationMove>,
    /// Rounds started since simulator start.
    pub rounds: u64,
    /// Moves successfully executed since simulator start.
    pub total_moves: u64,
    /// Bytes migrated since simulator start.
    pub total_bytes_moved: u64,
}

impl Balancer {
    /// Creates an idle balancer with the given threshold.
    pub fn new(threshold: f64) -> Self {
        Balancer {
            threshold,
            phase: RebalancePhase::Idle,
            queue: VecDeque::new(),
            rounds: 0,
            total_moves: 0,
            total_bytes_moved: 0,
        }
    }

    /// Load Calculator: whether the per-node storage utilization exceeds
    /// the threshold (max fill > mean fill * (1 + t)). Real balancers
    /// compare utilization, not raw bytes (the HDFS Balancer's definition),
    /// which stays meaningful when volume attach/detach makes node
    /// capacities differ.
    ///
    /// Runs once per executed operation (the activation check), so it
    /// reads the cluster's streaming utilization stats in O(1) instead of
    /// walking every node. The eligibility filter is identical to the old
    /// walk: `UtilTracker` entries exist exactly for the nodes the
    /// planner's private `fills` returns (see `StorageNode::util_q`).
    pub fn needs_rebalance(&self, cluster: &Cluster) -> bool {
        cluster.util_stats().is_imbalanced(self.threshold)
    }

    /// Per-node utilization for online storage nodes.
    ///
    /// O(nodes). Only called from the planning paths ([`Self::plan`],
    /// [`Self::donor_nodes`], [`Self::hottest_node`]), which run when a
    /// rebalance round *starts* — not per executed operation.
    fn fills(cluster: &Cluster) -> Vec<(NodeId, f64)> {
        cluster
            .node_fill()
            .into_iter()
            .filter(|(_, _, cap)| *cap > 0)
            .map(|(n, used, cap)| (n, used as f64 / cap as f64))
            .collect()
    }

    /// The most utilized online storage node (the "hotspot" candidate).
    pub fn hottest_node(cluster: &Cluster) -> Option<NodeId> {
        Self::fills(cluster)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n)
    }

    /// Nodes over the donor threshold — exactly the donors [`Self::plan`]
    /// would shed replicas from, computed without touching the file table.
    ///
    /// This lets callers that are about to filter the plan (effect hooks)
    /// prove it empty cheaply: if every donor is excluded, no move survives.
    pub fn donor_nodes(&self, cluster: &Cluster) -> Vec<NodeId> {
        let fills = Self::fills(cluster);
        if fills.len() < 2 {
            return Vec::new();
        }
        let mean = fills.iter().map(|(_, f)| f).sum::<f64>() / fills.len() as f64;
        if mean <= f64::EPSILON {
            return Vec::new();
        }
        fills
            .into_iter()
            .filter(|(_, f)| *f > mean * (1.0 + self.threshold * 0.5))
            .map(|(n, _)| n)
            .collect()
    }

    /// Migration Planner: plans moves that bring every node's utilization
    /// within the threshold band around the mean utilization.
    ///
    /// Over-utilized nodes shed their largest replicas first (as the HDFS
    /// balancer and Gluster rebalance do) toward the volume with the most
    /// free space on the least-utilized node. The plan is a pure function
    /// of cluster state.
    ///
    /// O(files + moves · nodes): nodes are indexed by slot in
    /// [`Cluster::node_fill`] order, and each move picks its receiver with
    /// one linear scan.
    pub fn plan(&self, cluster: &Cluster) -> Vec<MigrationMove> {
        // Per slot: node id and capacity; `projected` holds the slot's
        // utilization, updated as moves are assigned.
        let (nodes, mut projected): (Vec<(NodeId, f64)>, Vec<f64>) = cluster
            .node_fill()
            .into_iter()
            .filter(|(_, _, cap)| *cap > 0)
            .map(|(n, used, cap)| ((n, cap as f64), used as f64 / cap as f64))
            .unzip();
        if nodes.len() < 2 {
            return Vec::new();
        }
        let mean = projected.iter().sum::<f64>() / projected.len() as f64;
        if mean <= f64::EPSILON {
            return Vec::new();
        }
        // Donors as `(slot, fill, replicas largest first)`. Buckets are
        // filled in a single pass over the file table (a volume belongs to
        // exactly one node, so a volume→donor-bucket map preserves the
        // per-donor replica order the old per-donor scans produced).
        let mut donors: Vec<(usize, f64, DonorReplicas)> = projected
            .iter()
            .enumerate()
            .filter(|(_, f)| **f > mean * (1.0 + self.threshold * 0.5))
            .map(|(slot, f)| (slot, *f, DonorReplicas::new()))
            .collect();
        if !donors.is_empty() {
            let mut vol_bucket: std::collections::BTreeMap<VolumeId, usize> =
                std::collections::BTreeMap::new();
            for (i, (slot, _, _)) in donors.iter().enumerate() {
                if let Some(sn) = cluster.storage.get(&nodes[*slot].0) {
                    for v in &sn.volumes {
                        vol_bucket.insert(v.id, i);
                    }
                }
            }
            for (fid, meta) in cluster.files() {
                for r in &meta.replicas {
                    if r.bytes > 0 {
                        if let Some(&i) = vol_bucket.get(&r.volume) {
                            donors[i].2.push((*fid, r.volume, r.bytes));
                        }
                    }
                }
            }
            for (_, _, replicas) in &mut donors {
                replicas.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
            }
        }
        // Deterministic order: most utilized donor first.
        donors.sort_by(|a, b| b.1.total_cmp(&a.1).then(nodes[a.0].0.cmp(&nodes[b.0].0)));
        let mut moves = Vec::new();
        for (donor, _, replicas) in donors {
            let (donor_id, donor_cap) = nodes[donor];
            for (fid, from_vol, bytes) in replicas {
                if projected[donor] <= mean * (1.0 + self.threshold * 0.25) {
                    break;
                }
                // Receiver: least-utilized other node that stays within the
                // threshold band after taking the replica.
                let mut receiver: Option<usize> = None;
                for (slot, f) in projected.iter().enumerate() {
                    let in_band = f + bytes as f64 / nodes[slot].1 <= mean * (1.0 + self.threshold);
                    let better = |r: usize| {
                        f.total_cmp(&projected[r])
                            .then(nodes[slot].0.cmp(&nodes[r].0))
                            .is_lt()
                    };
                    if slot != donor && in_band && receiver.is_none_or(better) {
                        receiver = Some(slot);
                    }
                }
                let Some(recv) = receiver else {
                    continue;
                };
                let (recv_id, recv_cap) = nodes[recv];
                let Some(sn) = cluster.storage.get(&recv_id) else {
                    continue;
                };
                let Some(best_vol) = sn
                    .volumes
                    .iter()
                    .filter(|v| v.free() >= bytes)
                    .max_by_key(|v| (v.free(), std::cmp::Reverse(v.id)))
                else {
                    continue;
                };
                moves.push(MigrationMove {
                    file: fid,
                    from: from_vol,
                    from_node: donor_id,
                    to: best_vol.id,
                    to_node: recv_id,
                    bytes,
                });
                projected[donor] -= bytes as f64 / donor_cap;
                projected[recv] += bytes as f64 / recv_cap;
            }
        }
        moves
    }

    /// [`Balancer::plan`] restricted to reachable nodes: moves touching an
    /// excluded (partitioned) node are dropped, as a real balancer's RPCs
    /// to an unreachable peer would fail.
    pub fn plan_excluding(&self, cluster: &Cluster, excluded: &[NodeId]) -> Vec<MigrationMove> {
        let mut plan = self.plan(cluster);
        if !excluded.is_empty() {
            plan.retain(|m| !excluded.contains(&m.from_node) && !excluded.contains(&m.to_node));
        }
        plan
    }

    /// Starts a round with the given (possibly effect-filtered) plan.
    pub fn start_round(&mut self, plan: Vec<MigrationMove>) {
        self.rounds += 1;
        self.queue = plan.into();
        self.phase = if self.queue.is_empty() {
            RebalancePhase::Idle
        } else {
            RebalancePhase::Migrating
        };
    }

    /// Pops up to `n` moves for the executor.
    pub fn next_moves(&mut self, n: usize) -> Vec<MigrationMove> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.queue.pop_front() {
                Some(m) => out.push(m),
                None => break,
            }
        }
        if self.queue.is_empty() {
            self.phase = RebalancePhase::Idle;
        }
        out
    }

    /// Puts a deferred move back at the queue tail (slow-storage faults
    /// stall individual migrations without dropping them), reopening the
    /// round if `next_moves` just drained the queue.
    pub fn requeue(&mut self, m: MigrationMove) {
        self.queue.push_back(m);
        self.phase = RebalancePhase::Migrating;
    }

    /// Externally visible status.
    pub fn status(&self) -> RebalanceStatus {
        match self.phase {
            RebalancePhase::Idle => RebalanceStatus::Done,
            RebalancePhase::Migrating => RebalanceStatus::Running,
        }
    }

    /// Drops the in-flight plan (reset).
    pub fn abort(&mut self) {
        self.queue.clear();
        self.phase = RebalancePhase::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::mix;
    use crate::types::FileId;
    use proptest::prelude::*;

    /// The sort-based planner [`Balancer::plan`] replaced: caps in a
    /// `BTreeMap`, receivers filtered, collected and sorted per move, donor
    /// fills looked up by linear search. Kept as the reference the
    /// slot-indexed planner must match move for move.
    fn plan_reference(b: &Balancer, cluster: &Cluster) -> Vec<MigrationMove> {
        let caps: std::collections::BTreeMap<NodeId, f64> = cluster
            .node_fill()
            .into_iter()
            .filter(|(_, _, cap)| *cap > 0)
            .map(|(n, _, cap)| (n, cap as f64))
            .collect();
        let fills = Balancer::fills(cluster);
        if fills.len() < 2 {
            return Vec::new();
        }
        let mean = fills.iter().map(|(_, f)| f).sum::<f64>() / fills.len() as f64;
        if mean <= f64::EPSILON {
            return Vec::new();
        }
        let mut projected: Vec<(NodeId, f64)> = fills.clone();
        let mut donors: Vec<(NodeId, DonorReplicas)> = fills
            .iter()
            .filter(|(_, f)| *f > mean * (1.0 + b.threshold * 0.5))
            .map(|(n, _)| (*n, DonorReplicas::new()))
            .collect();
        if !donors.is_empty() {
            let mut vol_bucket: std::collections::BTreeMap<VolumeId, usize> =
                std::collections::BTreeMap::new();
            for (i, (node, _)) in donors.iter().enumerate() {
                if let Some(sn) = cluster.storage.get(node) {
                    for v in &sn.volumes {
                        vol_bucket.insert(v.id, i);
                    }
                }
            }
            for (fid, meta) in cluster.files() {
                for r in &meta.replicas {
                    if r.bytes > 0 {
                        if let Some(&i) = vol_bucket.get(&r.volume) {
                            donors[i].1.push((*fid, r.volume, r.bytes));
                        }
                    }
                }
            }
            for (_, replicas) in &mut donors {
                replicas.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
            }
        }
        donors.sort_by(|a, b| {
            let fa = fills
                .iter()
                .find(|(n, _)| *n == a.0)
                .map(|(_, f)| *f)
                .unwrap_or(0.0);
            let fb = fills
                .iter()
                .find(|(n, _)| *n == b.0)
                .map(|(_, f)| *f)
                .unwrap_or(0.0);
            fb.total_cmp(&fa).then(a.0.cmp(&b.0))
        });
        let mut moves = Vec::new();
        for (donor, replicas) in donors {
            let donor_cap = caps.get(&donor).copied().unwrap_or(1.0);
            for (fid, from_vol, bytes) in replicas {
                let donor_fill = projected
                    .iter()
                    .find(|(n, _)| *n == donor)
                    .map(|(_, f)| *f)
                    .unwrap_or(0.0);
                if donor_fill <= mean * (1.0 + b.threshold * 0.25) {
                    break;
                }
                let mut receivers: Vec<(NodeId, f64)> = projected
                    .iter()
                    .filter(|(n, f)| {
                        *n != donor && {
                            let cap = caps.get(n).copied().unwrap_or(1.0);
                            f + bytes as f64 / cap <= mean * (1.0 + b.threshold)
                        }
                    })
                    .cloned()
                    .collect();
                receivers.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let Some((recv, _)) = receivers.first().cloned() else {
                    continue;
                };
                let Some(sn) = cluster.storage.get(&recv) else {
                    continue;
                };
                let Some(best_vol) = sn
                    .volumes
                    .iter()
                    .filter(|v| v.free() >= bytes)
                    .max_by_key(|v| (v.free(), std::cmp::Reverse(v.id)))
                else {
                    continue;
                };
                moves.push(MigrationMove {
                    file: fid,
                    from: from_vol,
                    from_node: donor,
                    to: best_vol.id,
                    to_node: recv,
                    bytes,
                });
                let recv_cap = caps.get(&recv).copied().unwrap_or(1.0);
                for (n, f) in &mut projected {
                    if *n == donor {
                        *f -= bytes as f64 / donor_cap;
                    } else if *n == recv {
                        *f += bytes as f64 / recv_cap;
                    }
                }
            }
        }
        moves
    }

    /// A random cluster of `nodes` storage nodes drawn from `seed`: one to
    /// three volumes of 1k, 4k or 10k bytes per node, so the band filter
    /// rejects small receivers for large replicas; fills from a short
    /// list of fractions, so many nodes tie; about every seventh node a
    /// donor packed to 90% with equal-sized files; and some two-replica
    /// files.
    fn random_cluster(seed: u64, nodes: u64) -> Cluster {
        let mut c = Cluster::new();
        c.add_mgmt(6);
        let mut fid = 0u64;
        for n in 0..nodes {
            let h = mix(seed, n);
            let cap = [1_000, 4_000, 10_000][(h % 3) as usize];
            let (_, vols) = c.add_storage(1 + ((h >> 8) % 3) as u32, cap);
            let donor = (h >> 16).is_multiple_of(7);
            let fill_pct = if donor {
                90
            } else {
                [0, 10, 20, 20, 30][((h >> 24) % 5) as usize]
            };
            let file_bytes = if donor { cap / 10 } else { cap / 20 };
            for &vol in &vols {
                let mut used = 0;
                while used + file_bytes <= cap * fill_pct / 100 {
                    c.store(FileId(fid), vol, file_bytes).unwrap();
                    used += file_bytes;
                    fid += 1;
                }
            }
        }
        // A 50-byte extra replica of every eleventh file on a volume drawn
        // from the seed, where it fits.
        let views = c.volume_views();
        for f in (0..fid).step_by(11) {
            let vol = views[(mix(seed ^ 1, f) % views.len() as u64) as usize].volume;
            let _ = c.store(FileId(f), vol, 50);
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The slot-indexed planner with its linear receiver scan plans
        /// exactly the moves of the sort-based reference.
        #[test]
        fn plan_matches_sort_based_reference(
            seed in any::<u64>(),
            nodes in 200u64..400,
            threshold_pct in 5u64..40,
        ) {
            let c = random_cluster(seed, nodes);
            let b = Balancer::new(threshold_pct as f64 / 100.0);
            let plan = b.plan(&c);
            prop_assert!(b.donor_nodes(&c).len() > 1, "expected several donors");
            prop_assert!(!plan.is_empty(), "expected a non-empty plan");
            prop_assert_eq!(plan, plan_reference(&b, &c));
        }
    }

    /// Builds a 3-node cluster with a deliberately skewed load.
    fn skewed_cluster() -> Cluster {
        let mut c = Cluster::new();
        c.add_mgmt(6);
        let (_, v0) = c.add_storage(1, 10_000);
        let (_, v1) = c.add_storage(1, 10_000);
        let (_, v2) = c.add_storage(1, 10_000);
        // Node 1 (v0) holds 6 files of 1000B, others are nearly empty.
        for i in 0..6 {
            c.store(FileId(i), v0[0], 1_000).unwrap();
        }
        c.store(FileId(100), v1[0], 500).unwrap();
        c.store(FileId(101), v2[0], 500).unwrap();
        c
    }

    #[test]
    fn needs_rebalance_detects_skew() {
        let c = skewed_cluster();
        let b = Balancer::new(0.10);
        assert!(b.needs_rebalance(&c));
    }

    #[test]
    fn balanced_cluster_needs_no_rebalance() {
        let mut c = Cluster::new();
        c.add_mgmt(6);
        let (_, v0) = c.add_storage(1, 10_000);
        let (_, v1) = c.add_storage(1, 10_000);
        c.store(FileId(1), v0[0], 1_000).unwrap();
        c.store(FileId(2), v1[0], 1_000).unwrap();
        let b = Balancer::new(0.10);
        assert!(!b.needs_rebalance(&c));
    }

    #[test]
    fn empty_cluster_needs_no_rebalance() {
        let mut c = Cluster::new();
        c.add_mgmt(6);
        c.add_storage(1, 10_000);
        c.add_storage(1, 10_000);
        let b = Balancer::new(0.10);
        assert!(!b.needs_rebalance(&c));
    }

    #[test]
    fn plan_reduces_imbalance() {
        let mut c = skewed_cluster();
        let b = Balancer::new(0.10);
        let plan = b.plan(&c);
        assert!(!plan.is_empty());
        for m in &plan {
            c.migrate(m.file, m.from, m.to, m.bytes).unwrap();
        }
        assert!(
            !b.needs_rebalance(&c),
            "plan execution should rebalance the cluster"
        );
    }

    #[test]
    fn plan_moves_from_hottest_node() {
        let c = skewed_cluster();
        let b = Balancer::new(0.10);
        let hottest = Balancer::hottest_node(&c).unwrap();
        let plan = b.plan(&c);
        assert!(plan.iter().all(|m| m.from_node == hottest));
    }

    #[test]
    fn plan_is_deterministic() {
        let c = skewed_cluster();
        let b = Balancer::new(0.10);
        assert_eq!(b.plan(&c), b.plan(&c));
    }

    #[test]
    fn round_lifecycle() {
        let c = skewed_cluster();
        let mut b = Balancer::new(0.10);
        assert_eq!(b.status(), RebalanceStatus::Done);
        let plan = b.plan(&c);
        let planned = plan.len();
        b.start_round(plan);
        assert_eq!(b.status(), RebalanceStatus::Running);
        assert_eq!(b.rounds, 1);
        let mut executed = 0;
        while b.status() == RebalanceStatus::Running {
            executed += b.next_moves(2).len();
        }
        assert_eq!(executed, planned);
        assert_eq!(b.status(), RebalanceStatus::Done);
    }

    #[test]
    fn empty_plan_round_is_immediately_done() {
        let mut b = Balancer::new(0.10);
        b.start_round(Vec::new());
        assert_eq!(b.status(), RebalanceStatus::Done);
        assert_eq!(b.rounds, 1);
    }

    #[test]
    fn abort_clears_queue() {
        let c = skewed_cluster();
        let mut b = Balancer::new(0.10);
        b.start_round(b.plan(&c));
        assert_eq!(b.status(), RebalanceStatus::Running);
        b.abort();
        assert_eq!(b.status(), RebalanceStatus::Done);
        assert!(b.queue.is_empty());
    }
}
