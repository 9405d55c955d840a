//! Per-node load accounting and cluster load snapshots.
//!
//! This module implements the measurement side of the paper's Load Variance
//! Model (Figure 8): every node carries computation load (CPU utilization
//! across its cores), network load (requests per unit time plus read/write
//! IO counts) and storage load (bytes stored). Rate-like quantities (rps,
//! CPU, IO) are tracked as exponentially decaying counters over virtual
//! time so that bursts decay exactly the way a `top`/`iostat` style monitor
//! would observe on a real cluster.

use crate::types::{Bytes, NodeId, NodeRole, SimTime};
use serde::{Deserialize, Serialize};

/// Time constant (ms) for rate decay: a five-minute observation window.
/// Long enough to smooth the multinomial noise of request routing (so the
/// network/CPU detectors see systematic skew rather than per-minute jitter),
/// short enough that funnel/spin effects dominate within one fuzzing
/// iteration.
const DECAY_WINDOW_MS: f64 = 300_000.0;

/// An exponentially decaying rate counter.
///
/// `add` records events at the current instant; `rate` reports the decayed
/// events-per-second estimate. Decay is applied lazily on access so the
/// counter costs nothing while idle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecayingRate {
    value: f64,
    last: SimTime,
}

impl Default for DecayingRate {
    fn default() -> Self {
        DecayingRate {
            value: 0.0,
            last: SimTime::ZERO,
        }
    }
}

impl DecayingRate {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    fn decay_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last) as f64;
        if dt > 0.0 {
            self.value *= (-dt / DECAY_WINDOW_MS).exp();
            self.last = now;
        }
    }

    /// Records `amount` events at instant `now`.
    pub fn add(&mut self, now: SimTime, amount: f64) {
        self.decay_to(now);
        self.value += amount;
    }

    /// The decayed accumulated value as observed at `now`.
    pub fn value_at(&mut self, now: SimTime) -> f64 {
        self.decay_to(now);
        self.value
    }

    /// Clears the counter.
    pub fn reset(&mut self) {
        self.value = 0.0;
        self.last = SimTime::ZERO;
    }

    /// The raw, not-yet-decayed accumulated value (diagnostics/audit only —
    /// use [`DecayingRate::value_at`] for observations).
    pub fn peek_raw(&self) -> f64 {
        self.value
    }

    /// The instant of the most recent update (diagnostics/audit only).
    pub fn last_update(&self) -> SimTime {
        self.last
    }
}

/// Live load accounting attached to one node.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeLoadAccount {
    /// Decaying CPU work counter (abstract work units).
    pub cpu: DecayingRate,
    /// Decaying count of client requests handled.
    pub rps: DecayingRate,
    /// Decaying count of read IO operations.
    pub read_io: DecayingRate,
    /// Decaying count of write IO operations.
    pub write_io: DecayingRate,
}

impl NodeLoadAccount {
    /// Clears all counters.
    pub fn reset(&mut self) {
        self.cpu.reset();
        self.rps.reset();
        self.read_io.reset();
        self.write_io.reset();
    }
}

/// A point-in-time view of one node's load, as collected by a monitor.
///
/// This is what the paper's `LoadMonitor()` interface returns per node and
/// what the Load Variance Model consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeLoadSample {
    /// The observed node.
    pub node: NodeId,
    /// The node's role (management nodes carry network/CPU load, storage
    /// nodes carry storage load; both carry IO).
    pub role: NodeRole,
    /// Whether the node was online when sampled.
    pub online: bool,
    /// Decayed CPU utilization (work units per window).
    pub cpu: f64,
    /// Decayed requests handled per window.
    pub rps: f64,
    /// Decayed read IO operations per window.
    pub read_io: f64,
    /// Decayed write IO operations per window.
    pub write_io: f64,
    /// Bytes of file data stored on the node (sum over its volumes).
    pub storage: Bytes,
    /// Total capacity of the node's volumes in bytes.
    pub capacity: Bytes,
    /// Milliseconds since the node joined the cluster.
    pub uptime_ms: u64,
}

impl NodeLoadSample {
    /// Storage utilization in `[0, 1]`, or 0 for nodes without capacity.
    pub fn storage_util(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.storage as f64 / self.capacity as f64
        }
    }
}

/// A cluster-wide load snapshot at one instant.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// Instant the snapshot was taken.
    pub time: SimTime,
    /// One sample per cluster node (management and storage).
    pub nodes: Vec<NodeLoadSample>,
}

impl ClusterSnapshot {
    /// Samples for online nodes of the given role.
    pub fn by_role(&self, role: NodeRole) -> impl Iterator<Item = &NodeLoadSample> {
        self.nodes
            .iter()
            .filter(move |n| n.role == role && n.online)
    }

    /// Max-over-mean imbalance ratio for a metric over the given samples.
    ///
    /// Returns `max / mean` where `mean` is over all provided values, or 1.0
    /// when there are fewer than two samples or the mean is ~zero (a cluster
    /// with no load is trivially balanced). This is the LBS quantity from
    /// Section 2.2 of the paper.
    pub fn imbalance_ratio(values: &[f64]) -> f64 {
        Self::imbalance_ratio_iter(values.iter().copied())
    }

    /// Streaming form of [`ClusterSnapshot::imbalance_ratio`]: consumes the
    /// values in one pass with no intermediate collection. The simulator's
    /// per-operation variance sampling uses this for the CPU/network
    /// dimensions (bounded management fleets); the storage dimension is
    /// served in O(1) by the incrementally maintained
    /// [`crate::loadstats::UtilTracker`], whose `imbalance_ratio` computes
    /// the same max-over-mean quantity from quantized utilizations.
    pub fn imbalance_ratio_iter(values: impl Iterator<Item = f64>) -> f64 {
        let (mut n, mut sum, mut max) = (0usize, 0.0f64, f64::MIN);
        for v in values {
            n += 1;
            sum += v;
            max = max.max(v);
        }
        if n < 2 {
            return 1.0;
        }
        let mean = sum / n as f64;
        if mean <= f64::EPSILON {
            return 1.0;
        }
        max / mean
    }

    /// Storage imbalance ratio over online storage nodes, measured on
    /// utilization (used/capacity) as the HDFS Balancer defines it — with
    /// heterogeneous per-node capacities (volume attach/detach), raw bytes
    /// cannot be equalized but utilization can.
    pub fn storage_imbalance(&self) -> f64 {
        let v: Vec<f64> = self
            .by_role(NodeRole::Storage)
            .filter(|n| n.capacity > 0)
            .map(|n| n.storage as f64 / n.capacity as f64)
            .collect();
        Self::imbalance_ratio(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u32, role: NodeRole, storage: Bytes) -> NodeLoadSample {
        NodeLoadSample {
            node: NodeId(node),
            role,
            online: true,
            cpu: 0.0,
            rps: 0.0,
            read_io: 0.0,
            write_io: 0.0,
            storage,
            capacity: 100,
            uptime_ms: 1 << 40,
        }
    }

    #[test]
    fn decaying_rate_decays_over_time() {
        let mut r = DecayingRate::new();
        r.add(SimTime(0), 100.0);
        let decayed = r.value_at(SimTime(300_000));
        assert!(
            decayed < 100.0 * 0.37 + 1.0,
            "expected ~e^-1 decay, got {decayed}"
        );
        assert!(decayed > 30.0);
    }

    #[test]
    fn decaying_rate_accumulates_without_time_passing() {
        let mut r = DecayingRate::new();
        r.add(SimTime(5), 1.0);
        r.add(SimTime(5), 2.0);
        assert!((r.value_at(SimTime(5)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_ratio_of_uniform_load_is_one() {
        let v = vec![10.0, 10.0, 10.0];
        assert!((ClusterSnapshot::imbalance_ratio(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_ratio_detects_hotspot() {
        let v = vec![10.0, 10.0, 40.0];
        // mean = 20, max = 40 -> ratio 2.0
        assert!((ClusterSnapshot::imbalance_ratio(&v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_ratio_degenerate_cases_are_balanced() {
        assert_eq!(ClusterSnapshot::imbalance_ratio(&[]), 1.0);
        assert_eq!(ClusterSnapshot::imbalance_ratio(&[5.0]), 1.0);
        assert_eq!(ClusterSnapshot::imbalance_ratio(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn snapshot_storage_imbalance_ignores_management_nodes() {
        let snap = ClusterSnapshot {
            time: SimTime::ZERO,
            nodes: vec![
                sample(0, NodeRole::Management, 999),
                sample(1, NodeRole::Storage, 10),
                sample(2, NodeRole::Storage, 30),
            ],
        };
        // mean = 20, max = 30 -> 1.5; the management node's bytes are ignored.
        assert!((snap.storage_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_skips_offline_nodes() {
        let mut off = sample(3, NodeRole::Storage, 1_000_000);
        off.online = false;
        let snap = ClusterSnapshot {
            time: SimTime::ZERO,
            nodes: vec![
                sample(1, NodeRole::Storage, 10),
                sample(2, NodeRole::Storage, 10),
                off,
            ],
        };
        assert!((snap.storage_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn storage_util_handles_zero_capacity() {
        let mut s = sample(1, NodeRole::Storage, 10);
        s.capacity = 0;
        assert_eq!(s.storage_util(), 0.0);
    }
}
