//! The four simulated DFS flavors and their configurations.
//!
//! Each flavor mirrors the externally observable load-balancing behaviour of
//! one of the paper's targets: placement algorithm family, balancer
//! activation style, default imbalance threshold, default topology, and the
//! size of its coverage universe (scaled to the branch counts the paper
//! reports in Table 5).

use crate::coverage::CoverageUniverse;
use crate::placement::{CrushStraw2, DhtHashRing, FreeSpaceWeighted, PlacementPolicy, VnodeRing};
use crate::types::{Bytes, GIB, MIB};
use serde::{Deserialize, Serialize};

/// One of the four simulated distributed file systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Flavor {
    /// Hadoop Distributed File System (v3.4-sim).
    Hdfs,
    /// CephFS (v18.0.0-sim).
    CephFs,
    /// GlusterFS (v12.0-sim).
    GlusterFs,
    /// LeoFS (v1.4.4-sim).
    LeoFs,
}

impl Flavor {
    /// All four flavors in the paper's presentation order.
    pub fn all() -> [Flavor; 4] {
        [
            Flavor::Hdfs,
            Flavor::CephFs,
            Flavor::GlusterFs,
            Flavor::LeoFs,
        ]
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Hdfs => "HDFS",
            Flavor::CephFs => "CephFS",
            Flavor::GlusterFs => "GlusterFS",
            Flavor::LeoFs => "LeoFS",
        }
    }

    /// Simulated version string (matching the versions the paper tests).
    pub fn version(self) -> &'static str {
        match self {
            Flavor::Hdfs => "v3.4-sim",
            Flavor::CephFs => "v18.0.0-sim",
            Flavor::GlusterFs => "v12.0-sim",
            Flavor::LeoFs => "v1.4.4-sim",
        }
    }

    /// The default configuration for this flavor.
    pub fn config(self) -> FlavorConfig {
        FlavorConfig::for_flavor(self)
    }
}

impl std::fmt::Display for Flavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the flavor's storage balancer activates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerStyle {
    /// HDFS: the Balancer tool runs when invoked (rebalance API) and a
    /// background check fires periodically.
    OnDemand {
        /// Period of the background imbalance check, in ms.
        check_period_ms: u64,
    },
    /// GlusterFS: rebalance is started by volume topology commands and by
    /// the rebalance API; a periodic fix-layout task also runs.
    Periodic {
        /// Period of the timed rebalance task, in ms.
        period_ms: u64,
    },
    /// CephFS: the balancer evaluates continuously (every clock tick).
    Continuous,
    /// LeoFS: rebalance runs after cluster membership changes and on API
    /// request.
    OnMembership,
}

/// Placement algorithm family used by a flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Free-space-weighted selection (HDFS).
    FreeSpaceWeighted,
    /// CRUSH/straw2 weighted rendezvous hashing (Ceph).
    Crush,
    /// DHT hash partitioning (GlusterFS).
    DhtRing,
    /// Consistent hashing with virtual nodes (LeoFS).
    VnodeRing,
}

impl PlacementKind {
    /// Instantiates the policy object.
    pub fn build(self) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementKind::FreeSpaceWeighted => Box::new(FreeSpaceWeighted),
            PlacementKind::Crush => Box::new(CrushStraw2),
            PlacementKind::DhtRing => Box::new(DhtHashRing),
            PlacementKind::VnodeRing => Box::new(VnodeRing::default()),
        }
    }
}

/// How client requests are routed to management nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Route by hash of the path (Gluster/LeoFS gateways).
    HashPath,
    /// Round-robin across online management nodes (HDFS HA reads).
    RoundRobin,
    /// Primary-subtree: the MDS owning the top-level directory serves the
    /// request (CephFS dynamic subtree partitioning, coarse-grained).
    PrimarySubtree,
}

/// Full configuration of one simulated DFS instance.
#[derive(Debug, Clone)]
pub struct FlavorConfig {
    /// Which flavor this configures.
    pub flavor: Flavor,
    /// Replication factor for file data.
    pub replicas: usize,
    /// Internal balancer threshold `t` (fraction over the mean that counts
    /// as imbalanced; 0.10 in the HDFS Balancer, 0.20 in GlusterFS).
    pub balance_threshold: f64,
    /// Balancer activation style.
    pub balancer: BalancerStyle,
    /// Placement algorithm.
    pub placement: PlacementKind,
    /// Request routing.
    pub routing: RoutingKind,
    /// Coverage universe sizes.
    pub coverage: CoverageUniverse,
    /// Initial number of management nodes.
    pub mgmt_nodes: u32,
    /// Initial number of storage nodes.
    pub storage_nodes: u32,
    /// Volumes attached to each initial storage node.
    pub volumes_per_node: u32,
    /// Capacity of each initial volume, in bytes.
    pub volume_capacity: Bytes,
    /// File moves the migration executor performs per balancer step.
    pub moves_per_step: usize,
    /// Virtual milliseconds one migration step takes.
    pub migrate_step_ms: u64,
    /// How long a file's hashed id stays in the DHT migration cache
    /// (GlusterFS dht-rebalance cache; drives new-bug #1).
    pub hash_cache_ttl_ms: u64,
    /// Striping block size: file data is split into blocks of this size
    /// and placed independently (HDFS blocks, Ceph objects, LeoFS chunks).
    /// `0` means whole-file placement (GlusterFS DHT semantics).
    pub block_size: Bytes,
    /// Whole-file flavors shard files larger than this threshold into
    /// `shard_size` pieces (the GlusterFS shard translator). `0` disables
    /// sharding (meaningless for striping flavors).
    pub shard_threshold: Bytes,
    /// Shard size used above `shard_threshold`.
    pub shard_size: Bytes,
    /// Maximum management nodes the testbed can host.
    pub max_mgmt_nodes: u32,
    /// Maximum storage nodes the testbed can host.
    pub max_storage_nodes: u32,
    /// Maximum volumes per storage node.
    pub max_volumes_per_node: u32,
    /// Fraction of raw capacity pre-loaded with base data at deploy time.
    /// Production DFSes already store large amounts of data (Section 2.1);
    /// the tester's workload shifts balance only gradually against it.
    pub base_fill: f64,
    /// Size of each pre-loaded base file.
    pub base_file_size: Bytes,
}

impl FlavorConfig {
    /// The paper-faithful default configuration for `flavor`.
    ///
    /// All flavors run the paper's 10-node cluster split between management
    /// and storage roles; capacities are scaled from 480 GB SSDs down to a
    /// few GiB so campaigns stay fast while preserving utilization ratios.
    pub fn for_flavor(flavor: Flavor) -> Self {
        match flavor {
            Flavor::Hdfs => FlavorConfig {
                flavor,
                replicas: 3,
                balance_threshold: 0.10,
                balancer: BalancerStyle::OnDemand {
                    check_period_ms: 600_000,
                },
                placement: PlacementKind::FreeSpaceWeighted,
                routing: RoutingKind::RoundRobin,
                coverage: CoverageUniverse {
                    base: 26_000,
                    pair: 7_500,
                    state: 6_000,
                    deep: 6_000,
                },
                mgmt_nodes: 2,
                storage_nodes: 8,
                volumes_per_node: 2,
                volume_capacity: 24 * GIB,
                moves_per_step: 4,
                migrate_step_ms: 2_000,
                hash_cache_ttl_ms: 0,
                block_size: 32 * MIB,
                shard_threshold: 0,
                shard_size: 0,
                max_mgmt_nodes: 4,
                max_storage_nodes: 10,
                max_volumes_per_node: 4,
                base_fill: 0.35,
                base_file_size: 256 * MIB,
            },
            Flavor::CephFs => FlavorConfig {
                flavor,
                replicas: 3,
                balance_threshold: 0.08,
                balancer: BalancerStyle::Continuous,
                placement: PlacementKind::Crush,
                routing: RoutingKind::PrimarySubtree,
                coverage: CoverageUniverse {
                    base: 42_000,
                    pair: 11_000,
                    state: 9_500,
                    deep: 10_000,
                },
                mgmt_nodes: 3,
                storage_nodes: 7,
                volumes_per_node: 2,
                volume_capacity: 24 * GIB,
                moves_per_step: 6,
                migrate_step_ms: 1_500,
                hash_cache_ttl_ms: 0,
                block_size: 8 * MIB,
                shard_threshold: 0,
                shard_size: 0,
                max_mgmt_nodes: 5,
                max_storage_nodes: 9,
                max_volumes_per_node: 4,
                base_fill: 0.35,
                base_file_size: 256 * MIB,
            },
            Flavor::GlusterFs => FlavorConfig {
                flavor,
                replicas: 2,
                balance_threshold: 0.20,
                balancer: BalancerStyle::Periodic { period_ms: 300_000 },
                placement: PlacementKind::DhtRing,
                routing: RoutingKind::HashPath,
                coverage: CoverageUniverse {
                    base: 32_000,
                    pair: 9_000,
                    state: 7_000,
                    deep: 7_500,
                },
                mgmt_nodes: 2,
                storage_nodes: 8,
                volumes_per_node: 2,
                volume_capacity: 24 * GIB,
                moves_per_step: 4,
                migrate_step_ms: 2_500,
                hash_cache_ttl_ms: 900_000,
                block_size: 0,
                shard_threshold: 128 * MIB,
                shard_size: 32 * MIB,
                max_mgmt_nodes: 4,
                max_storage_nodes: 10,
                max_volumes_per_node: 4,
                base_fill: 0.35,
                base_file_size: 256 * MIB,
            },
            Flavor::LeoFs => FlavorConfig {
                flavor,
                replicas: 2,
                balance_threshold: 0.15,
                balancer: BalancerStyle::OnMembership,
                placement: PlacementKind::VnodeRing,
                routing: RoutingKind::HashPath,
                coverage: CoverageUniverse {
                    base: 7_600,
                    pair: 2_100,
                    state: 1_700,
                    deep: 1_700,
                },
                mgmt_nodes: 3,
                storage_nodes: 7,
                volumes_per_node: 1,
                volume_capacity: 48 * GIB,
                moves_per_step: 3,
                migrate_step_ms: 2_000,
                hash_cache_ttl_ms: 0,
                block_size: 16 * MIB,
                shard_threshold: 0,
                shard_size: 0,
                max_mgmt_nodes: 5,
                max_storage_nodes: 9,
                max_volumes_per_node: 3,
                base_fill: 0.35,
                base_file_size: 256 * MIB,
            },
        }
    }

    /// A large-topology variant of the flavor's default configuration for
    /// scaling studies (1k/10k-node campaigns).
    ///
    /// Only the storage fleet grows — the management fleet keeps its
    /// paper-faithful size, because real deployments scale data nodes far
    /// faster than NameNodes/MDSes and the simulator's per-op mgmt walks
    /// stay O(1) that way. Pre-loaded base files are enlarged to 1 GiB so
    /// deploy-time preload stays a bounded number of placements (tens of
    /// thousands at 10k nodes) instead of millions.
    ///
    /// Requesting fewer storage nodes than the paper default keeps the
    /// default topology unchanged.
    pub fn scaled(flavor: Flavor, storage_nodes: u32) -> Self {
        let mut cfg = Self::for_flavor(flavor);
        if storage_nodes > cfg.storage_nodes {
            cfg.storage_nodes = storage_nodes;
            // Leave headroom for AddStorageNode churn on top of the
            // requested fleet (10%, at least 2 slots).
            cfg.max_storage_nodes = storage_nodes.saturating_add((storage_nodes / 10).max(2));
            cfg.base_file_size = GIB;
        }
        cfg
    }

    /// Default size of a volume added by `AddVolume`/`AddStorageNode`
    /// requests when the caller does not specify one.
    pub fn default_new_volume_capacity(&self) -> Bytes {
        self.volume_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_flavors_have_distinct_names_and_versions() {
        let names: Vec<_> = Flavor::all().iter().map(|f| f.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn ten_node_clusters() {
        for f in Flavor::all() {
            let c = f.config();
            assert_eq!(
                c.mgmt_nodes + c.storage_nodes,
                10,
                "{f} must form a 10-node cluster"
            );
        }
    }

    #[test]
    fn thresholds_match_paper_defaults() {
        assert!((Flavor::Hdfs.config().balance_threshold - 0.10).abs() < 1e-9);
        assert!((Flavor::GlusterFs.config().balance_threshold - 0.20).abs() < 1e-9);
    }

    #[test]
    fn coverage_universe_ordering_matches_table5_scale() {
        // Table 5: CephFS > GlusterFS > HDFS > LeoFS in branch counts.
        let u = |f: Flavor| f.config().coverage.total();
        assert!(u(Flavor::CephFs) > u(Flavor::GlusterFs));
        assert!(u(Flavor::GlusterFs) > u(Flavor::Hdfs));
        assert!(u(Flavor::Hdfs) > u(Flavor::LeoFs));
    }

    #[test]
    fn scaled_grows_storage_only() {
        for f in Flavor::all() {
            let base = f.config();
            let big = FlavorConfig::scaled(f, 1_000);
            assert_eq!(big.storage_nodes, 1_000);
            assert!(big.max_storage_nodes >= 1_002);
            assert_eq!(big.mgmt_nodes, base.mgmt_nodes, "{f} mgmt fleet fixed");
            assert_eq!(big.max_mgmt_nodes, base.max_mgmt_nodes);
            assert_eq!(big.base_file_size, GIB);
            // Requesting fewer nodes than the default changes nothing.
            let small = FlavorConfig::scaled(f, 1);
            assert_eq!(small.storage_nodes, base.storage_nodes);
            assert_eq!(small.base_file_size, base.base_file_size);
        }
    }

    #[test]
    fn placement_kinds_build() {
        for (kind, policy) in [
            (PlacementKind::FreeSpaceWeighted, "FreeSpaceWeighted"),
            (PlacementKind::Crush, "CrushStraw2"),
            (PlacementKind::DhtRing, "DhtHashRing"),
            (PlacementKind::VnodeRing, "VnodeRing"),
        ] {
            assert!(
                format!("{:?}", kind.build()).starts_with(policy),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn only_gluster_has_hash_cache() {
        for f in Flavor::all() {
            let ttl = f.config().hash_cache_ttl_ms;
            if f == Flavor::GlusterFs {
                assert!(ttl > 0);
            } else {
                assert_eq!(ttl, 0);
            }
        }
    }
}
