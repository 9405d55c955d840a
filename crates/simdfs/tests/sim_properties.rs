//! Property-based tests of the simulator's core invariants under
//! arbitrary request streams.

use proptest::prelude::*;
use simdfs::bugs::{SimEvent, Trigger};
use simdfs::loadstats::float_mean_variance;
use simdfs::{
    BugSet, DfsRequest, DfsSim, FaultPlan, Flavor, FlavorConfig, NodeId, OpClass, RebalanceStatus,
    SimTime, VolumeId, MIB,
};

/// An arbitrary request referencing small id spaces so that a useful
/// fraction succeeds.
fn arb_request() -> impl Strategy<Value = DfsRequest> {
    let path = (0u8..12).prop_map(|i| format!("/q{i}"));
    let size = (0u64..96).prop_map(|m| m * MIB);
    let node = (0u32..24).prop_map(NodeId);
    let volume = (0u32..40).prop_map(VolumeId);
    prop_oneof![
        (path.clone(), size.clone()).prop_map(|(path, size)| DfsRequest::Create { path, size }),
        path.clone().prop_map(|path| DfsRequest::Delete { path }),
        (path.clone(), size.clone()).prop_map(|(path, delta)| DfsRequest::Append { path, delta }),
        (path.clone(), size.clone()).prop_map(|(path, size)| DfsRequest::Overwrite { path, size }),
        path.clone().prop_map(|path| DfsRequest::Open { path }),
        (path.clone(), path.clone()).prop_map(|(from, to)| DfsRequest::Rename { from, to }),
        Just(DfsRequest::AddMgmtNode),
        node.clone()
            .prop_map(|node| DfsRequest::RemoveMgmtNode { node }),
        size.clone()
            .prop_map(|capacity| DfsRequest::AddStorageNode {
                volumes: 2,
                capacity
            }),
        node.clone()
            .prop_map(|node| DfsRequest::RemoveStorageNode { node }),
        (node, size.clone()).prop_map(|(node, capacity)| DfsRequest::AddVolume { node, capacity }),
        volume
            .clone()
            .prop_map(|volume| DfsRequest::RemoveVolume { volume }),
        (volume.clone(), size.clone())
            .prop_map(|(volume, delta)| DfsRequest::ExpandVolume { volume, delta }),
        (volume, size).prop_map(|(volume, delta)| DfsRequest::ReduceVolume { volume, delta }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No request stream can violate the physical invariants of a
    /// bug-free cluster: volumes never over-filled, time monotonic,
    /// no data lost while space remains plentiful, no crashed nodes.
    #[test]
    fn physical_invariants_hold(reqs in proptest::collection::vec(arb_request(), 1..120)) {
        let mut sim = DfsSim::new(Flavor::GlusterFs, BugSet::None);
        let mut last = SimTime::ZERO;
        for req in &reqs {
            let _ = sim.execute(req);
            prop_assert!(sim.now() >= last, "virtual time must be monotonic");
            last = sim.now();
            for node in sim.cluster().storage.values() {
                for v in &node.volumes {
                    prop_assert!(
                        v.used <= v.capacity,
                        "volume {} over-filled: {}/{}",
                        v.id, v.used, v.capacity
                    );
                }
            }
        }
        prop_assert!(sim.crashed_nodes().is_empty());
        // Logical-vs-physical consistency: every namespace file's stored
        // bytes never exceed size times the replication factor.
        let rep = sim.config().replicas as u64;
        for (_, fid, size) in sim.namespace().files() {
            if let Some(meta) = sim.cluster().files().get(&fid) {
                let stored: u64 = meta.replicas.iter().map(|r| r.bytes).sum();
                prop_assert!(
                    stored <= size * rep,
                    "file {fid}: stored {stored} > {size} x{rep}"
                );
            }
        }
    }

    /// The simulator is a pure function of its request stream.
    #[test]
    fn sim_is_deterministic(reqs in proptest::collection::vec(arb_request(), 1..60)) {
        let run = |reqs: &[DfsRequest]| {
            let mut sim = DfsSim::new(Flavor::CephFs, BugSet::New);
            for r in reqs {
                let _ = sim.execute(r);
            }
            (
                sim.now(),
                sim.coverage_count(),
                sim.cluster().total_used(),
                sim.oracle_triggered().len(),
                sim.stats().migrations,
            )
        };
        prop_assert_eq!(run(&reqs), run(&reqs));
    }

    /// Rebalance always terminates and never breaks volume capacity.
    #[test]
    fn rebalance_terminates(reqs in proptest::collection::vec(arb_request(), 1..60)) {
        let mut sim = DfsSim::new(Flavor::Hdfs, BugSet::None);
        for r in &reqs {
            let _ = sim.execute(r);
        }
        sim.rebalance();
        let mut guard = 0;
        while sim.rebalance_status() == RebalanceStatus::Running {
            sim.tick(2_000);
            guard += 1;
            prop_assert!(guard < 20_000, "rebalance did not terminate");
        }
        for node in sim.cluster().storage.values() {
            for v in &node.volumes {
                prop_assert!(v.used <= v.capacity);
            }
        }
    }

    /// The streaming utilization accumulators always agree with a full
    /// recomputation: after any request stream — under any flavor and
    /// fault profile, across fork/restore boundaries — the state audit
    /// (which rebuilds the tracker from scratch and compares) passes, and
    /// the O(1) imbalance ratio matches the float ratio computed from a
    /// fresh load snapshot.
    #[test]
    fn incremental_variance_matches_full_recompute(
        reqs in proptest::collection::vec(arb_request(), 1..80),
        flavor_idx in 0usize..4,
        profile_idx in 0usize..3,
    ) {
        let flavor = Flavor::all()[flavor_idx];
        let profile = ["none", "crash", "diskfull"][profile_idx];
        let mut sim = DfsSim::new(flavor, BugSet::None);
        if profile != "none" {
            sim.set_fault_plan(FaultPlan::named(profile, 42).expect("known profile"));
        }

        let check = |sim: &mut DfsSim| -> Result<(), TestCaseError> {
            prop_assert!(
                sim.audit_state().is_ok(),
                "[{flavor:?}/{profile}] audit: {:?}",
                sim.audit_state()
            );
            let tracked = sim.cluster().util_stats().imbalance_ratio();
            let recomputed = sim.load_snapshot().storage_imbalance();
            // The tracker quantizes utilization to 2^-32; request sizes are
            // MiB-scale on GiB-scale volumes, so quantization error in the
            // ratio is orders of magnitude below this tolerance.
            prop_assert!(
                (tracked - recomputed).abs() <= 1e-6 * recomputed.max(1.0),
                "[{flavor:?}/{profile}] ratio drifted: tracked {tracked} vs recomputed {recomputed}"
            );
            Ok(())
        };

        // First half, then abandon it via restore (the undo log must put
        // the accumulators back exactly), then the full stream.
        let mark = sim.fork();
        for r in &reqs[..reqs.len() / 2] {
            let _ = sim.execute(r);
        }
        check(&mut sim)?;
        prop_assert!(sim.restore(mark), "fork mark must stay valid");
        check(&mut sim)?;
        for r in &reqs {
            let _ = sim.execute(r);
        }
        check(&mut sim)?;
    }

    /// Trigger state machines never panic and fire at most once per
    /// arming, for any event stream.
    #[test]
    fn triggers_are_total(classes in proptest::collection::vec(0u64..14, 1..300)) {
        let mut triggers = vec![
            Trigger::subseq(vec![OpClass::Create, OpClass::VolumeAdd], 4),
            Trigger::op_count(vec![OpClass::Resize], 3, 10),
            Trigger::op_count_timed(vec![OpClass::Create], 3, 10, 5_000),
            Trigger::size_spread(4, 8.0),
            Trigger::rebalance_burst(2, 10_000),
            Trigger::membership_churn(2, 10_000),
            Trigger::echoed_mix(3, 2, 1),
            Trigger::within(
                vec![
                    Trigger::op_count(vec![OpClass::Create], 2, 20),
                    Trigger::membership_churn(1, 60_000),
                ],
                50,
            ),
        ];
        let all_classes = [
            OpClass::Create, OpClass::Delete, OpClass::Resize, OpClass::Read,
            OpClass::DirMeta, OpClass::Rename, OpClass::MgmtAdd, OpClass::MgmtRemove,
            OpClass::StorageAdd, OpClass::StorageRemove, OpClass::VolumeAdd,
            OpClass::VolumeRemove, OpClass::VolumeExpand, OpClass::VolumeReduce,
        ];
        for t in &mut triggers {
            let mut fired = 0;
            for (i, c) in classes.iter().enumerate() {
                let class = all_classes[*c as usize];
                let now = SimTime((i as u64) * 700);
                let ev = SimEvent::Op { class, ok: true, size: (i as u64 % 64) * MIB };
                if t.observe(now, &ev) {
                    fired += 1;
                    break; // the engine stops feeding after a fire
                }
                if class.is_membership() {
                    let _ = t.observe(now, &SimEvent::MembershipChange { class });
                }
            }
            prop_assert!(fired <= 1);
        }
    }
}

/// One step of the 100k churn walk (see below): a data-path or
/// lifecycle mutation keyed by small deterministic operands.
fn churn_request(kind: u8, id: u32, mibs: u64) -> DfsRequest {
    let path = format!("/churn{}", id % 64);
    match kind % 6 {
        0 | 1 => DfsRequest::Create {
            path,
            size: mibs * MIB,
        },
        2 => DfsRequest::Delete { path },
        3 => DfsRequest::Append {
            path,
            delta: mibs * MIB,
        },
        4 => DfsRequest::Overwrite {
            path,
            size: mibs * MIB,
        },
        _ => DfsRequest::Open { path },
    }
}

proptest! {
    // A fresh 100k-node topology per case is the dominant cost, so this
    // block runs few cases with long churn streams rather than many short
    // ones.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// On a 100k-node topology, the streaming `UtilTracker` equals a
    /// from-scratch `f64` recompute over the node tables after long churn
    /// sequences — store/free/resize via data requests, crash/heal via a
    /// fault plan, and a fork/restore rewind in the middle. This is the
    /// differential guard for the arena-indexed tracker at 100k nodes.
    #[test]
    fn tracker_matches_float_recompute_after_churn_100k(
        ops in proptest::collection::vec((0u8..6, any::<u32>(), 1u64..48), 60..140),
        fault_seed in any::<u64>(),
    ) {
        let mut cfg = FlavorConfig::scaled(Flavor::Hdfs, 100_000);
        cfg.base_fill = 0.0; // the churn below provides all the load
        cfg.volumes_per_node = 1;
        let mut sim = DfsSim::with_config(cfg, BugSet::None);
        sim.set_fault_plan(FaultPlan::named("crash", fault_seed).expect("known profile"));

        let check = |sim: &DfsSim| -> Result<(), TestCaseError> {
            let t = sim.cluster().util_stats();
            let utils: Vec<f64> = sim
                .cluster()
                .storage
                .values()
                .filter(|n| n.util_q().is_some())
                .map(|n| n.used() as f64 / n.capacity() as f64)
                .collect();
            prop_assert_eq!(t.count(), utils.len(), "eligible-node count drifted");
            let (fmean, fvar) = float_mean_variance(utils.into_iter());
            // Quantization error is <= 2^-32 per node; 1e-6 is orders of
            // magnitude above it and catches any real maintenance bug.
            prop_assert!(
                (t.mean() - fmean).abs() <= 1e-6,
                "mean drifted: tracker {} vs float {}",
                t.mean(),
                fmean
            );
            prop_assert!(
                (t.variance() - fvar).abs() <= 1e-6,
                "variance drifted: tracker {} vs float {}",
                t.variance(),
                fvar
            );
            Ok(())
        };

        // First half, rewound via fork/restore, then the full stream.
        let mark = sim.fork();
        for &(kind, id, mibs) in &ops[..ops.len() / 2] {
            let _ = sim.execute(&churn_request(kind, id, mibs));
        }
        check(&sim)?;
        prop_assert!(sim.restore(mark), "fork mark must stay valid");
        check(&sim)?;
        for &(kind, id, mibs) in &ops {
            let _ = sim.execute(&churn_request(kind, id, mibs));
        }
        check(&sim)?;
        prop_assert!(sim.audit_state().is_ok(), "{:?}", sim.audit_state());
    }
}
