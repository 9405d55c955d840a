//! The bug catalog: 10 previously unknown failures (Table 2) and the 53
//! historical failures from the motivation study (Table 1 / Table 4).
//!
//! New bugs are wired to mechanistic trigger conditions in the simulated
//! balancer code paths. Historical bugs are organized in tiers that encode
//! the study's findings: 7 request-only (13%), 2 configuration-only (4%),
//! 44 requiring both input spaces (83%); 35 triggerable in ≤5 steps (66%),
//! 18 needing 6–8 steps (34%); 5 gated on Windows/hardware environments
//! this testbed (like the paper's) cannot reproduce.

use super::trigger::{Metric, Trigger};
use super::{BugSpec, Effect, FailureKind, Gate};
use crate::flavor::Flavor;
use crate::request::OpClass;

/// The dense mixed-configuration window that gates the deep failures: many
/// storage-node *and* volume commands inside one short span of operations.
/// Load variance-guided fuzzing concentrates exactly this kind of pressure
/// (its seed pool is enriched in variance-raising configuration classes),
/// uniform random generation reaches it only as a far statistical tail,
/// and phase-separated or fix-one-space methods cannot produce it at all.
fn config_pressure_subs() -> Vec<Trigger> {
    vec![
        Trigger::op_count_timed(
            vec![OpClass::StorageAdd, OpClass::StorageRemove],
            6,
            25,
            120_000,
        ),
        Trigger::op_count_timed(
            vec![
                OpClass::VolumeAdd,
                OpClass::VolumeRemove,
                OpClass::VolumeExpand,
                OpClass::VolumeReduce,
            ],
            8,
            25,
            120_000,
        ),
    ]
}

/// The 10 previously unknown imbalance failures of Table 2.
pub fn new_bugs(platform: Flavor) -> Vec<BugSpec> {
    all_new_bugs()
        .into_iter()
        .filter(|b| b.platform == platform)
        .collect()
}

/// All 10 new bugs across the four flavors.
pub fn all_new_bugs() -> Vec<BugSpec> {
    vec![
        // #1 GlusterFS — linkfile deletion in dht.rebalancer (case study).
        BugSpec {
            id: "Bug#S24387",
            platform: Flavor::GlusterFs,
            kind: FailureKind::ImbalancedStorage,
            title: "load imbalance due to mistakenly removing plenty of file data in \
                    dht.rebalancer, causing serious data loss in GlusterFS",
            trigger: Trigger::within_timed(
                {
                    let mut subs = vec![
                        Trigger::CacheRemigration,
                        Trigger::op_count(vec![OpClass::Rename], 2, 80),
                    ];
                    subs.extend(config_pressure_subs());
                    subs
                },
                80,
                240_000,
            ),
            effect: Effect::DeleteMigratedData { pct: 60 },
            gate: Gate::None,
            is_new: true,
        },
        // #2 GlusterFS — mishandled file ops with large size differences.
        BugSpec {
            id: "Bug#S24389",
            platform: Flavor::GlusterFs,
            kind: FailureKind::ImbalancedStorage,
            title: "imbalanced storage distribution after mistakenly handling plenty of \
                    file operations with large size differences in gf.handler",
            trigger: Trigger::within(
                vec![
                    Trigger::size_spread(12, 48.0),
                    Trigger::rebalance_burst(1, 3_600_000),
                ],
                400,
            ),
            effect: Effect::SkipMigrationFromHot,
            gate: Gate::None,
            is_new: true,
        },
        // #3 GlusterFS — crash on frequent rebalance with null hashID.
        BugSpec {
            id: "Bug#S25081",
            platform: Flavor::GlusterFs,
            kind: FailureKind::Crash,
            title: "some nodes in the network crash down after frequently executing load \
                    rebalance commands due to a null-pointer hashID",
            trigger: Trigger::within(
                vec![
                    Trigger::rebalance_burst(4, 1_500_000),
                    Trigger::op_count(vec![OpClass::StorageAdd, OpClass::StorageRemove], 2, 60),
                    Trigger::size_spread(6, 16.0),
                ],
                250,
            ),
            effect: Effect::CrashNodes { count: 2 },
            gate: Gate::None,
            is_new: true,
        },
        // #4 GlusterFS — wrong assignment in gf_self_healing.
        BugSpec {
            id: "Bug#S25088",
            platform: Flavor::GlusterFs,
            kind: FailureKind::ImbalancedCpu,
            title: "imbalanced computation load caused by wrong assignment in \
                    gf_self_healing after nodes change and surge in client requests",
            trigger: Trigger::within_timed(
                {
                    let mut subs = vec![
                        Trigger::subseq(vec![OpClass::StorageRemove, OpClass::StorageAdd], 8),
                        Trigger::size_spread(8, 24.0),
                    ];
                    subs.extend(config_pressure_subs());
                    subs
                },
                80,
                240_000,
            ),
            effect: Effect::CpuSpin,
            gate: Gate::None,
            is_new: true,
        },
        // #5 LeoFS — wrong rebalance_list read.
        BugSpec {
            id: "Bug#S231116",
            platform: Flavor::LeoFs,
            kind: FailureKind::ImbalancedStorage,
            title: "storage distributes unevenly due to wrong rebalance_list read in \
                    leofs.cluster after constant file resizing and volume changing",
            trigger: Trigger::within(
                vec![
                    Trigger::op_count(vec![OpClass::Resize], 10, 60),
                    Trigger::op_count(
                        vec![
                            OpClass::VolumeAdd,
                            OpClass::VolumeRemove,
                            OpClass::VolumeExpand,
                            OpClass::VolumeReduce,
                        ],
                        2,
                        60,
                    ),
                ],
                300,
            ),
            effect: Effect::SkipMigrationFromHot,
            gate: Gate::None,
            is_new: true,
        },
        // #6 LeoFS — incorrect data sync in leofs.migration.
        BugSpec {
            id: "Bug#S231117",
            platform: Flavor::LeoFs,
            kind: FailureKind::ImbalancedStorage,
            title: "some nodes become 'hotspots' caused by incorrect data sync in \
                    leofs.migration after nodes enter and exit frequently",
            trigger: Trigger::within_timed(
                {
                    let mut subs = vec![
                        Trigger::membership_churn(6, 1_200_000),
                        Trigger::op_count(vec![OpClass::Create], 3, 60),
                    ];
                    subs.extend(config_pressure_subs());
                    subs
                },
                80,
                240_000,
            ),
            effect: Effect::HotspotPlacement { pct: 70 },
            gate: Gate::None,
            is_new: true,
        },
        // #7 LeoFS — wrong rebalance measuring between two LeoGateways.
        BugSpec {
            id: "Bug#S231137",
            platform: Flavor::LeoFs,
            kind: FailureKind::ImbalancedNetwork,
            title: "requests distributed imbalanced due to wrong rebalance measuring \
                    between two LeoGateways when two nodes happen to exit",
            trigger: Trigger::within_timed(
                {
                    let mut subs = vec![
                        Trigger::subseq(vec![OpClass::MgmtRemove, OpClass::MgmtRemove], 6),
                        Trigger::size_spread(8, 24.0),
                    ];
                    subs.extend(config_pressure_subs());
                    subs
                },
                80,
                240_000,
            ),
            effect: Effect::NetFunnel,
            gate: Gate::None,
            is_new: true,
        },
        // #8 CephFS — balancing IO hangs in replicas.
        BugSpec {
            id: "Bug#63890",
            platform: Flavor::CephFs,
            kind: FailureKind::ImbalancedStorage,
            title: "imbalanced storage where some storage devices are full while others \
                    only occupy 65% caused by balancing IO hangs in replicas",
            trigger: Trigger::within_timed(
                {
                    let mut subs = vec![
                        Trigger::size_spread(10, 32.0),
                        Trigger::op_count(vec![OpClass::Create, OpClass::Resize], 10, 45),
                    ];
                    subs.extend(config_pressure_subs());
                    subs
                },
                80,
                240_000,
            ),
            effect: Effect::MisreportRebalance,
            gate: Gate::None,
            is_new: true,
        },
        // #9 HDFS — Inode conflicts in balancing.
        BugSpec {
            id: "Bug#20240111",
            platform: Flavor::Hdfs,
            kind: FailureKind::ImbalancedStorage,
            title: "some disks become 'hotspots' due to Inode conflicts in balancing \
                    when executing many file operations within nodes scaling",
            trigger: Trigger::within(
                vec![
                    Trigger::op_count(vec![OpClass::Create], 8, 50),
                    Trigger::op_count(vec![OpClass::DirMeta], 3, 60),
                    Trigger::rebalance_burst(2, 2_400_000),
                ],
                300,
            ),
            effect: Effect::SkipMigrationFromHot,
            gate: Gate::None,
            is_new: true,
        },
        // #10 HDFS — NameNode traffic jams in checkpointSize.
        BugSpec {
            id: "Bug#20240126",
            platform: Flavor::Hdfs,
            kind: FailureKind::ImbalancedNetwork,
            title: "NameNodes traffic jams due to blocks in newly generated files in \
                    checkpointSize when some storage replicas went offline",
            trigger: Trigger::within_timed(
                {
                    let mut subs = vec![
                        Trigger::subseq(
                            vec![OpClass::StorageRemove, OpClass::Create, OpClass::Create],
                            6,
                        ),
                        Trigger::op_count(vec![OpClass::Rename], 2, 60),
                    ];
                    subs.extend(config_pressure_subs());
                    subs
                },
                80,
                240_000,
            ),
            effect: Effect::NetFunnel,
            gate: Gate::None,
            is_new: true,
        },
    ]
}

/// Shallow-both trigger profiles. Each profile differs in which strategies
/// can plausibly reach it (emergently — via input-space and window shape).
#[derive(Debug, Clone, Copy)]
enum ShallowProfile {
    /// Generic request side + membership churn, wide windows.
    EasyReqChurnWide,
    /// Generic request side + membership churn, tight windows.
    EasyReqChurnTight,
    /// Specific request pattern + self-triggerable rebalance side, wide.
    HardReqRebalanceWide,
    /// Specific request pattern + churn, tight windows.
    HardReqChurnTight,
    /// Variance-coupled: needs accumulated imbalance episodes.
    VarianceCoupled,
}

fn shallow_trigger(profile: ShallowProfile, variant: u64) -> Trigger {
    // Rotate concrete classes by variant for diversity.
    let easy_req = match variant % 3 {
        0 => Trigger::op_count(vec![OpClass::Create], 6, 250),
        1 => Trigger::op_count(vec![OpClass::Create, OpClass::Resize], 10, 250),
        _ => Trigger::op_count(vec![OpClass::Resize], 8, 250),
    };
    let hard_req = match variant % 4 {
        0 => Trigger::op_count(vec![OpClass::Rename], 3, 120),
        1 => Trigger::size_spread(8, 32.0),
        2 => Trigger::op_count(vec![OpClass::DirMeta], 6, 120),
        _ => Trigger::op_count(vec![OpClass::Delete], 5, 120),
    };
    let churn_wide = Trigger::membership_churn(2, 3_600_000);
    let churn_tight = Trigger::membership_churn(3, 900_000);
    let rebalance = Trigger::rebalance_burst(2, 2_400_000);
    match profile {
        ShallowProfile::EasyReqChurnWide => Trigger::within(vec![easy_req, churn_wide], 500),
        ShallowProfile::EasyReqChurnTight => Trigger::within(
            vec![
                match variant % 3 {
                    0 => Trigger::op_count(vec![OpClass::Create], 5, 40),
                    1 => Trigger::op_count(vec![OpClass::Create, OpClass::Resize], 9, 40),
                    _ => Trigger::op_count(vec![OpClass::Resize], 7, 40),
                },
                churn_tight,
            ],
            150,
        ),
        ShallowProfile::HardReqRebalanceWide => Trigger::within(vec![hard_req, rebalance], 500),
        ShallowProfile::HardReqChurnTight => Trigger::within(
            vec![
                match variant % 4 {
                    0 => Trigger::op_count(vec![OpClass::Rename], 3, 30),
                    1 => Trigger::size_spread(8, 32.0),
                    2 => Trigger::op_count(vec![OpClass::DirMeta], 4, 30),
                    _ => Trigger::op_count(vec![OpClass::Delete], 4, 30),
                },
                churn_tight,
            ],
            150,
        ),
        ShallowProfile::VarianceCoupled => Trigger::within(
            vec![
                easy_req,
                Trigger::membership_churn(2, 2_400_000),
                Trigger::variance_episodes(Metric::Storage, 1.15 + (variant % 3) as f64 * 0.04, 2),
            ],
            400,
        ),
    }
}

/// Deep-both trigger: a 6–8 class subsequence over both input spaces in a
/// tight window, plus accumulated variance episodes (Findings 5 and 6).
fn deep_trigger(variant: u64) -> Trigger {
    let patterns: [&[OpClass]; 4] = [
        &[
            OpClass::Create,
            OpClass::VolumeAdd,
            OpClass::DirMeta,
            OpClass::Create,
            OpClass::Delete,
            OpClass::StorageRemove,
        ],
        &[
            OpClass::Create,
            OpClass::Resize,
            OpClass::VolumeExpand,
            OpClass::Rename,
            OpClass::StorageAdd,
            OpClass::Delete,
            OpClass::Resize,
        ],
        &[
            OpClass::DirMeta,
            OpClass::Create,
            OpClass::VolumeReduce,
            OpClass::Create,
            OpClass::Read,
            OpClass::StorageRemove,
            OpClass::Create,
            OpClass::Delete,
        ],
        &[
            OpClass::Create,
            OpClass::StorageAdd,
            OpClass::Resize,
            OpClass::VolumeRemove,
            OpClass::Create,
            OpClass::Rename,
        ],
    ];
    let pat = patterns[(variant % 4) as usize].to_vec();
    let mut subs = vec![
        Trigger::subseq(pat, 10),
        Trigger::variance_episodes(Metric::Storage, 1.2 + (variant % 2) as f64 * 0.05, 2),
    ];
    subs.extend(config_pressure_subs());
    Trigger::within(subs, 100)
}

fn storage_effect(variant: u64) -> Effect {
    match variant % 3 {
        0 => Effect::SkipMigrationFromHot,
        1 => Effect::HotspotPlacement { pct: 55 },
        _ => Effect::MisreportRebalance,
    }
}

struct HistEntry {
    id: &'static str,
    title: &'static str,
    kind: FailureKind,
    tier: HistTier,
}

enum HistTier {
    ReqOnly,
    ConfOnly,
    Shallow(ShallowProfile),
    Deep,
    Gated(Gate),
}

fn hist_spec(platform: Flavor, variant: u64, e: HistEntry) -> BugSpec {
    let (trigger, gate) = match e.tier {
        HistTier::ReqOnly => {
            let t = match variant % 3 {
                0 => Trigger::size_spread(10, 48.0),
                1 => Trigger::op_count(vec![OpClass::Create, OpClass::Delete], 12, 60),
                _ => Trigger::within(
                    vec![
                        Trigger::op_count(vec![OpClass::Resize], 10, 60),
                        Trigger::variance_episodes(Metric::Storage, 1.12, 1),
                    ],
                    400,
                ),
            };
            (t, Gate::None)
        }
        HistTier::ConfOnly => (Trigger::membership_churn(3, 3_600_000), Gate::None),
        HistTier::Shallow(p) => (shallow_trigger(p, variant), Gate::None),
        HistTier::Deep => (deep_trigger(variant), Gate::None),
        HistTier::Gated(g) => (Trigger::Never, g),
    };
    let effect = match e.kind {
        FailureKind::ImbalancedStorage => storage_effect(variant),
        FailureKind::ImbalancedCpu => Effect::CpuSpin,
        FailureKind::ImbalancedNetwork => Effect::NetFunnel,
        FailureKind::Crash => Effect::CrashNodes { count: 1 },
        FailureKind::DataLoss => Effect::DeleteMigratedData { pct: 40 },
    };
    BugSpec {
        id: e.id,
        platform,
        kind: e.kind,
        title: e.title,
        trigger,
        effect,
        gate,
        is_new: false,
    }
}

/// The 53 historical imbalance failures of the motivation study.
pub fn all_historical_bugs() -> Vec<BugSpec> {
    use FailureKind::*;
    use HistTier::*;
    use ShallowProfile::*;
    let mut out = Vec::with_capacity(53);

    // HDFS: 18 failures (2 gated).
    let hdfs: Vec<HistEntry> = vec![
        HistEntry { id: "HDFS-13279", title: "DataNodes usage imbalanced when number of nodes per rack is unequal (stale clusterMap during migration)", kind: ImbalancedStorage, tier: Deep },
        HistEntry { id: "HDFS-4261", title: "timeouts in load-balancing process within MiniDFSCluster NodeGroup (Windows only)", kind: ImbalancedStorage, tier: Gated(Gate::WindowsOnly) },
        HistEntry { id: "HDFS-11741", title: "long running balancer fails due to expired DataEncryptionKey (encryption hardware)", kind: ImbalancedStorage, tier: Gated(Gate::HardwareFault) },
        HistEntry { id: "HDFS-13331", title: "block placement skew under bursty small-file creation", kind: ImbalancedStorage, tier: ReqOnly },
        HistEntry { id: "HDFS-14186", title: "hot directory reads overload a single NameNode", kind: ImbalancedNetwork, tier: ReqOnly },
        HistEntry { id: "HDFS-12456", title: "decommission storm leaves balancer plan stale", kind: ImbalancedStorage, tier: ConfOnly },
        HistEntry { id: "HDFS-13541", title: "balancer ignores newly added volumes in the same round", kind: ImbalancedStorage, tier: Shallow(EasyReqChurnWide) },
        HistEntry { id: "HDFS-14020", title: "disk usage skew after volume add during write burst", kind: ImbalancedStorage, tier: Shallow(EasyReqChurnTight) },
        HistEntry { id: "HDFS-13807", title: "rename-heavy workloads confuse the block map during scaling", kind: ImbalancedStorage, tier: Shallow(HardReqChurnTight) },
        HistEntry { id: "HDFS-14511", title: "balancer mis-sorts nodes with mixed file sizes", kind: ImbalancedStorage, tier: Shallow(HardReqRebalanceWide) },
        HistEntry { id: "HDFS-13977", title: "checkpoint thread pegs one NameNode CPU after node churn", kind: ImbalancedCpu, tier: Shallow(EasyReqChurnWide) },
        HistEntry { id: "HDFS-14313", title: "replication queue drains to a single DataNode", kind: ImbalancedStorage, tier: Shallow(VarianceCoupled) },
        HistEntry { id: "HDFS-13609", title: "slow disk heartbeats skew usage reports under load", kind: ImbalancedStorage, tier: Shallow(VarianceCoupled) },
        HistEntry { id: "HDFS-14782", title: "lease recovery floods one NameNode during membership change", kind: ImbalancedNetwork, tier: Shallow(HardReqChurnTight) },
        HistEntry { id: "HDFS-13168", title: "balancer moves blocks back and forth between two nodes (thrash)", kind: ImbalancedStorage, tier: Deep },
        HistEntry { id: "HDFS-14649", title: "storage policy mismatch strands blocks on one tier", kind: ImbalancedStorage, tier: Deep },
        HistEntry { id: "HDFS-13888", title: "snapshot deletes corrupt per-node usage accounting", kind: DataLoss, tier: Deep },
        HistEntry { id: "HDFS-14190", title: "append-after-scale loses balancer iterator position", kind: ImbalancedStorage, tier: Deep },
    ];
    for (i, e) in hdfs.into_iter().enumerate() {
        out.push(hist_spec(Flavor::Hdfs, i as u64, e));
    }

    // CephFS: 16 failures (2 gated).
    let ceph: Vec<HistEntry> = vec![
        HistEntry {
            id: "CEPH-64333",
            title: "PG autoscaler tuning causes catastrophic cluster crash",
            kind: Crash,
            tier: Deep,
        },
        HistEntry {
            id: "CEPH-41935",
            title: "MDSs keep crashing within the rebalance process (Windows only)",
            kind: Crash,
            tier: Gated(Gate::WindowsOnly),
        },
        HistEntry {
            id: "CEPH-55568",
            title: "CephPGImbalance alert inaccuracies under mixed HDD/SSD hardware",
            kind: ImbalancedStorage,
            tier: Gated(Gate::HardwareFault),
        },
        HistEntry {
            id: "CEPH-63014",
            title: "mclock scheduler latency imbalance under heavy writes after OSD restart",
            kind: ImbalancedNetwork,
            tier: Shallow(EasyReqChurnWide),
        },
        HistEntry {
            id: "CEPH-64611",
            title: "inconsistent return codes in MDS code base break load collection",
            kind: ImbalancedStorage,
            tier: Shallow(HardReqRebalanceWide),
        },
        HistEntry {
            id: "CEPH-65806",
            title: "IO hangs issuing balanced reads to replica OSDs while PG peering",
            kind: ImbalancedNetwork,
            tier: Shallow(HardReqChurnTight),
        },
        HistEntry {
            id: "CEPH-61520",
            title: "object size spread defeats straw2 weighting",
            kind: ImbalancedStorage,
            tier: ReqOnly,
        },
        HistEntry {
            id: "CEPH-59333",
            title: "subtree pinning overloads one MDS under deep mkdir trees",
            kind: ImbalancedCpu,
            tier: ReqOnly,
        },
        HistEntry {
            id: "CEPH-62214",
            title: "backfill reservation leak after OSD add under writes",
            kind: ImbalancedStorage,
            tier: Shallow(EasyReqChurnTight),
        },
        HistEntry {
            id: "CEPH-60625",
            title: "up:replay MDS consumes all CPU after gateway churn",
            kind: ImbalancedCpu,
            tier: Shallow(EasyReqChurnWide),
        },
        HistEntry {
            id: "CEPH-63790",
            title: "balancer upmap entries pile onto a single OSD",
            kind: ImbalancedStorage,
            tier: Shallow(VarianceCoupled),
        },
        HistEntry {
            id: "CEPH-64118",
            title: "degraded-ratio accounting drifts during overlapping rebalances",
            kind: ImbalancedStorage,
            tier: Shallow(VarianceCoupled),
        },
        HistEntry {
            id: "CEPH-62045",
            title: "MDS export_dir storm after double rank failure",
            kind: ImbalancedNetwork,
            tier: Deep,
        },
        HistEntry {
            id: "CEPH-63377",
            title: "pg_upmap_items survive OSD removal and strand data",
            kind: ImbalancedStorage,
            tier: Deep,
        },
        HistEntry {
            id: "CEPH-64901",
            title: "snap trim queue starves recovery on one OSD",
            kind: ImbalancedStorage,
            tier: Deep,
        },
        HistEntry {
            id: "CEPH-61782",
            title: "stray directory migration loses hardlinked inodes",
            kind: DataLoss,
            tier: Deep,
        },
    ];
    for (i, e) in ceph.into_iter().enumerate() {
        out.push(hist_spec(Flavor::CephFs, 100 + i as u64, e));
    }

    // GlusterFS: 12 failures (1 gated).
    let gluster: Vec<HistEntry> = vec![
        HistEntry {
            id: "GLUSTER-3356",
            title: "massive latency spikes requiring force-remount (hotspot accumulation)",
            kind: ImbalancedStorage,
            tier: Shallow(VarianceCoupled),
        },
        HistEntry {
            id: "GLUSTER-3513",
            title: "improper error handling during data migration causes data loss",
            kind: DataLoss,
            tier: Shallow(HardReqRebalanceWide),
        },
        HistEntry {
            id: "GLUSTER-1699",
            title: "brick offline with signal 11 during rebalance healing (hardware)",
            kind: Crash,
            tier: Gated(Gate::HardwareFault),
        },
        HistEntry {
            id: "GLUSTER-1245142",
            title: "rebalance hangs on distribute volume when glusterd stopped on peer",
            kind: ImbalancedStorage,
            tier: Deep,
        },
        HistEntry {
            id: "GLUSTER-2816",
            title: "small-file create storms skew the DHT layout",
            kind: ImbalancedStorage,
            tier: ReqOnly,
        },
        HistEntry {
            id: "GLUSTER-3153",
            title: "overwrite bursts leave sparse bricks unbalanced",
            kind: ImbalancedStorage,
            tier: ReqOnly,
        },
        HistEntry {
            id: "GLUSTER-2430",
            title: "fix-layout misses bricks added mid-round",
            kind: ImbalancedStorage,
            tier: Shallow(EasyReqChurnWide),
        },
        HistEntry {
            id: "GLUSTER-3088",
            title: "rebalance status stuck after brick replace under writes",
            kind: ImbalancedStorage,
            tier: Shallow(EasyReqChurnTight),
        },
        HistEntry {
            id: "GLUSTER-2644",
            title: "rename during migration leaves stale linkfiles",
            kind: ImbalancedStorage,
            tier: Shallow(HardReqChurnTight),
        },
        HistEntry {
            id: "GLUSTER-3201",
            title: "self-heal daemon pegs CPU after volume expand under load",
            kind: ImbalancedCpu,
            tier: Shallow(EasyReqChurnWide),
        },
        HistEntry {
            id: "GLUSTER-2977",
            title: "quota accounting drifts across bricks during periodic rebalance",
            kind: ImbalancedStorage,
            tier: Shallow(HardReqRebalanceWide),
        },
        HistEntry {
            id: "GLUSTER-3312",
            title: "dht layout anomaly after overlapping remove-brick operations",
            kind: ImbalancedStorage,
            tier: Deep,
        },
    ];
    for (i, e) in gluster.into_iter().enumerate() {
        out.push(hist_spec(Flavor::GlusterFs, 200 + i as u64, e));
    }

    // LeoFS: 7 failures (0 gated).
    let leofs: Vec<HistEntry> = vec![
        HistEntry {
            id: "LEOFS-1115",
            title: "deleting a storage node causes data loss",
            kind: DataLoss,
            tier: ConfOnly,
        },
        HistEntry {
            id: "LEOFS-987",
            title: "multipart upload bursts skew the ring",
            kind: ImbalancedStorage,
            tier: ReqOnly,
        },
        HistEntry {
            id: "LEOFS-1042",
            title: "gateway cache misses pile requests on one node after scale-out",
            kind: ImbalancedNetwork,
            tier: Shallow(EasyReqChurnWide),
        },
        HistEntry {
            id: "LEOFS-1077",
            title: "rebalance queue starves under concurrent writes and node swap",
            kind: ImbalancedStorage,
            tier: Shallow(EasyReqChurnTight),
        },
        HistEntry {
            id: "LEOFS-1101",
            title: "delete-heavy workloads corrupt per-node usage during churn",
            kind: ImbalancedStorage,
            tier: Shallow(HardReqChurnTight),
        },
        HistEntry {
            id: "LEOFS-1089",
            title: "ring checksum mismatch leaves vnode arcs unbalanced",
            kind: ImbalancedStorage,
            tier: Shallow(VarianceCoupled),
        },
        HistEntry {
            id: "LEOFS-1123",
            title: "compaction after resize storm strands objects on one node",
            kind: ImbalancedStorage,
            tier: Deep,
        },
    ];
    for (i, e) in leofs.into_iter().enumerate() {
        out.push(hist_spec(Flavor::LeoFs, 300 + i as u64, e));
    }

    debug_assert_eq!(out.len(), 53);
    out
}

/// Historical failures for one platform.
pub fn historical_bugs(platform: Flavor) -> Vec<BugSpec> {
    all_historical_bugs()
        .into_iter()
        .filter(|b| b.platform == platform)
        .collect()
}

/// Table 1 of the paper: number of studied failures per platform.
pub fn table1_counts() -> Vec<(Flavor, usize)> {
    Flavor::all()
        .iter()
        .map(|&f| (f, historical_bugs(f).len()))
        .collect()
}

/// A scripted reproduction support: the trigger parameters for the bug
/// whose reproduction Figure 2 plots (GLUSTER-3356 storage accumulation).
pub fn figure2_bug_id() -> &'static str {
    "GLUSTER-3356"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts_match_paper() {
        let counts = table1_counts();
        let get = |f: Flavor| {
            counts
                .iter()
                .find(|(p, _)| *p == f)
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert_eq!(get(Flavor::Hdfs), 18);
        assert_eq!(get(Flavor::CephFs), 16);
        assert_eq!(get(Flavor::GlusterFs), 12);
        assert_eq!(get(Flavor::LeoFs), 7);
        assert_eq!(all_historical_bugs().len(), 53);
    }

    #[test]
    fn new_bug_counts_match_table2() {
        assert_eq!(new_bugs(Flavor::GlusterFs).len(), 4);
        assert_eq!(new_bugs(Flavor::LeoFs).len(), 3);
        assert_eq!(new_bugs(Flavor::CephFs).len(), 1);
        assert_eq!(new_bugs(Flavor::Hdfs).len(), 2);
        assert_eq!(all_new_bugs().len(), 10);
        assert!(all_new_bugs().iter().all(|b| b.is_new && b.reproducible()));
    }

    #[test]
    fn bug_ids_are_unique() {
        let mut ids: Vec<&str> = all_new_bugs().iter().map(|b| b.id).collect();
        ids.extend(all_historical_bugs().iter().map(|b| b.id));
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn exactly_five_bugs_are_gated() {
        let gated: Vec<_> = all_historical_bugs()
            .into_iter()
            .filter(|b| !b.reproducible())
            .collect();
        assert_eq!(gated.len(), 5);
        let windows = gated.iter().filter(|b| b.gate == Gate::WindowsOnly).count();
        assert_eq!(windows, 2);
    }

    #[test]
    fn input_space_distribution_matches_finding4() {
        let bugs = all_historical_bugs();
        let live: Vec<_> = bugs.iter().filter(|b| b.reproducible()).collect();
        let req_only = live
            .iter()
            .filter(|b| b.trigger.needs_requests() && !b.trigger.needs_configs());
        let conf_only = live
            .iter()
            .filter(|b| !b.trigger.needs_requests() && b.trigger.needs_configs());
        // 7 request-only (13% of 53) and 2 config-only (4%); note some
        // "both" triggers include a rebalance-burst side, which is not a
        // config op, so needs_configs may be false for those — we check
        // only the strict one-space tiers here.
        assert_eq!(
            req_only.count(),
            7 + 4,
            "req-only tier plus rebalance-side shallows"
        );
        assert_eq!(conf_only.count(), 2);
    }

    #[test]
    fn deep_bugs_need_six_to_eight_steps() {
        for b in all_historical_bugs() {
            if b.reproducible() {
                let d = b.trigger.depth();
                assert!((1..=12).contains(&d), "{} depth {}", b.id, d);
            }
        }
    }

    #[test]
    fn figure2_bug_exists() {
        assert!(all_historical_bugs()
            .iter()
            .any(|b| b.id == figure2_bug_id()));
    }

    #[test]
    fn gluster_case_study_is_cache_remigration() {
        let b = all_new_bugs()
            .into_iter()
            .find(|b| b.id == "Bug#S24387")
            .unwrap();
        let has_cache = match &b.trigger {
            Trigger::All { subs, .. } | Trigger::Within { subs, .. } => {
                subs.iter().any(|t| matches!(t, Trigger::CacheRemigration))
            }
            t => matches!(t, Trigger::CacheRemigration),
        };
        assert!(
            has_cache,
            "case study must hinge on the cache-remigration path"
        );
        assert!(matches!(b.effect, Effect::DeleteMigratedData { .. }));
        assert_eq!(b.platform, Flavor::GlusterFs);
    }
}
