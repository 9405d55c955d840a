//! Property-based tests over the core invariants, spanning the fuzzer and
//! the simulator.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdfs::{BugSet, DfsRequest, DfsSim, Flavor, MIB};
use themis::{gen, mutate, InputModel, NodeInventory};

fn model() -> InputModel {
    let mut m = InputModel::new();
    m.sync(&NodeInventory {
        mgmt: vec![0, 1, 2],
        storage: (3..10).collect(),
        volumes: (20..34).collect(),
        free_space: 1 << 36,
        files: (0..32).map(|i| format!("/seed{i}")).collect(),
        dirs: vec!["/d1".into(), "/d2".into()],
    });
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any chain of mutations keeps test cases well-formed and in bounds.
    #[test]
    fn mutation_chain_preserves_invariants(seed in any::<u64>(), rounds in 1usize..40) {
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut case = gen::random_case(&mut m, &mut rng, gen::MAX_SEQ_LEN);
        for _ in 0..rounds {
            case = mutate::mutate(&case, &mut m, &mut rng, gen::MAX_SEQ_LEN);
            prop_assert!(case.well_formed());
            prop_assert!(!case.is_empty());
            prop_assert!(case.len() <= gen::MAX_SEQ_LEN);
        }
    }

    /// Generation respects the requested grammar subset.
    #[test]
    fn subset_generation_is_closed(seed in any::<u64>()) {
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(seed);
        let req = gen::request_only_case(&mut m, &mut rng, 8);
        prop_assert!(req.ops.iter().all(|o| o.opt.is_file_op()));
        let conf = gen::config_only_case(&mut m, &mut rng, 8);
        prop_assert!(conf.ops.iter().all(|o| o.opt.is_config_op()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Without data-loss bugs, bytes are conserved: stored bytes never
    /// exceed logical bytes times replication, and deleting everything the
    /// fuzzer created returns the cluster to its preloaded footprint.
    #[test]
    fn simulator_conserves_bytes(seed in any::<u64>(), n_files in 1usize..24) {
        let mut sim = DfsSim::new(Flavor::CephFs, BugSet::None);
        let base = sim.cluster().total_used();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::RngExt;
        let mut created = Vec::new();
        let mut logical = 0u64;
        for i in 0..n_files {
            let size = (1 + rng.random_range(0..64u64)) * MIB;
            let path = format!("/p{i}");
            if sim.execute(&DfsRequest::Create { path: path.clone(), size }).is_ok() {
                created.push(path);
                logical += size;
            }
        }
        let stored = sim.cluster().total_used() - base;
        prop_assert!(stored <= logical * 3, "stored {stored} > 3x logical {logical}");
        prop_assert!(stored >= logical, "stored {stored} < logical {logical} (lost replicas)");
        for p in &created {
            let deleted = sim.execute(&DfsRequest::Delete { path: p.clone() }).is_ok();
            prop_assert!(deleted);
        }
        prop_assert_eq!(sim.cluster().total_used(), base);
        prop_assert_eq!(sim.bytes_lost(), 0);
    }

    /// Rebalancing conserves bytes and reduces (or keeps) the utilization
    /// imbalance ratio when no bug effects are active.
    #[test]
    fn rebalance_is_safe_and_helpful(seed in any::<u64>()) {
        let mut sim = DfsSim::new(Flavor::GlusterFs, BugSet::None);
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::RngExt;
        for i in 0..20 {
            let size = (8 + rng.random_range(0..120u64)) * MIB;
            let _ = sim.execute(&DfsRequest::Create { path: format!("/f{i}"), size });
        }
        // Topology churn to create skew.
        let _ = sim.execute(&DfsRequest::AddStorageNode { volumes: 2, capacity: 0 });
        let before_bytes = sim.cluster().total_used();
        let before_ratio = sim.load_snapshot().storage_imbalance();
        sim.rebalance();
        let mut guard = 0;
        while sim.rebalance_status() == simdfs::RebalanceStatus::Running && guard < 3_000 {
            sim.tick(1_000);
            guard += 1;
        }
        let after_bytes = sim.cluster().total_used();
        let after_ratio = sim.load_snapshot().storage_imbalance();
        prop_assert_eq!(before_bytes, after_bytes, "rebalance must not create or destroy data");
        prop_assert!(
            after_ratio <= before_ratio + 1e-9,
            "rebalance must not worsen utilization imbalance ({before_ratio:.3} -> {after_ratio:.3})"
        );
    }

    /// Whatever request stream runs, a bug-free simulator never reports
    /// crashed nodes and its reset restores the initial inventory.
    #[test]
    fn reset_restores_initial_state(seed in any::<u64>()) {
        let sim = DfsSim::new(Flavor::LeoFs, BugSet::None);
        let initial_nodes = sim.cluster().node_ids().len();
        let initial_used = sim.cluster().total_used();
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(seed);
        // Random fuzz ops through the real generator + adaptor mapping.
        let mut adaptor = adaptors::SimAdaptor::from_handle(
            std::rc::Rc::new(std::cell::RefCell::new(sim)),
        );
        use themis::DfsAdaptor;
        for _ in 0..30 {
            let case = gen::random_case(&mut m, &mut rng, 8);
            for op in &case.ops {
                let _ = adaptor.send(op);
            }
        }
        adaptor.reset();
        let handle = adaptor.handle();
        let sim = handle.borrow();
        prop_assert_eq!(sim.cluster().node_ids().len(), initial_nodes);
        prop_assert_eq!(sim.cluster().total_used(), initial_used);
        prop_assert!(sim.crashed_nodes().is_empty());
        prop_assert_eq!(sim.namespace().file_count(),
            // Only the preloaded /sys files remain.
            sim.cluster().files().len());
    }
}
