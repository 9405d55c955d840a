//! Fault-injection grid acceptance tests.
//!
//! Two properties gate the fault subsystem:
//!  1. Determinism — a fault-profile campaign is a pure function of its
//!     grid coordinates, so parallel grid execution is bit-identical to
//!     the serial reference and to a repeat run with the same seed.
//!  2. Effect — crash, slow-node and lossy-migration faults demonstrably
//!     change detector outcomes relative to the fault-free baseline cell
//!     (no seeded DFS bugs, so the fault is the only possible cause).

use bench::{run_cell, run_grid, GridCell, GridSpec};
use simdfs::{BugSet, Flavor};
use themis::ImbalanceKind;

const SEED: u64 = 0x7e15;

fn fault_spec(workers: usize) -> GridSpec {
    GridSpec {
        workers,
        fault_profiles: vec!["none".into(), "crash".into(), "slow".into(), "lossy".into()],
        ..GridSpec::new(
            Flavor::all().to_vec(),
            vec!["Themis".into()],
            vec![SEED],
            BugSet::None,
            2,
        )
    }
}

/// Runs the one `fault_spec` cell at `(flavor, profile)` from a fresh
/// deploy.
fn cell(flavor: Flavor, profile: &str) -> GridCell {
    let spec = fault_spec(1);
    let index = (0..spec.cells())
        .find(|&i| {
            let (f, _, _, p) = spec.coords(i);
            f == flavor && p == profile
        })
        .expect("cell present");
    run_cell(&spec, index)
}

fn confirmed_kinds(c: &GridCell) -> Vec<ImbalanceKind> {
    c.eval.campaign.confirmed.iter().map(|f| f.kind).collect()
}

#[test]
fn fault_grid_is_bit_identical_across_runs_and_workers() {
    let base = fault_spec(1);
    let serial: Vec<_> = (0..base.cells()).map(|i| run_cell(&base, i)).collect();

    // Same seed, same plan: a second serial run reproduces every cell
    // bit-for-bit (CampaignResult is PartialEq over the full outcome,
    // including the coverage trace and every confirmed failure).
    for (i, first) in serial.iter().enumerate() {
        let again = run_cell(&base, i);
        assert_eq!(
            first.eval.campaign,
            again.eval.campaign,
            "cell {i} ({} / {}) not reproducible",
            first.flavor.name(),
            first.fault_profile
        );
        assert_eq!(first.eval.bytes_lost, again.eval.bytes_lost);
    }

    // Parallel execution matches the serial reference.
    let out = run_grid(&fault_spec(4));
    assert_eq!(out.cells.len(), serial.len());
    for (g, s) in out.cells.iter().zip(&serial) {
        assert_eq!(g.index, s.index);
        assert_eq!(g.fault_profile, s.fault_profile);
        assert_eq!(
            g.eval.campaign,
            s.eval.campaign,
            "parallel run changed cell {} ({} / {})",
            g.index,
            g.flavor.name(),
            g.fault_profile
        );
        assert_eq!(g.eval.bytes_lost, s.eval.bytes_lost);
    }
}

#[test]
fn faults_change_detector_outcomes_vs_baseline() {
    // Crash: the crashed storage node must surface as a confirmed Crash
    // failure — impossible in the fault-free cell.
    let baseline = cell(Flavor::Hdfs, "none");
    let crash = cell(Flavor::Hdfs, "crash");
    assert!(
        confirmed_kinds(&crash).contains(&ImbalanceKind::Crash),
        "crash profile must confirm a Crash failure, got {:?}",
        confirmed_kinds(&crash)
    );
    assert!(!confirmed_kinds(&baseline).contains(&ImbalanceKind::Crash));
    assert_ne!(crash.eval.campaign, baseline.eval.campaign);

    // Slow management node: factor-6 latency/CPU skew on one of HDFS's
    // two management nodes clears the CPU ratio and load gates.
    let slow = cell(Flavor::Hdfs, "slow");
    assert!(
        confirmed_kinds(&slow).contains(&ImbalanceKind::Cpu),
        "slow profile must confirm a Cpu imbalance, got {:?}",
        confirmed_kinds(&slow)
    );
    assert_ne!(slow.eval.campaign, baseline.eval.campaign);

    // Lossy migration: CephFS rebalances continuously, so a 40% loss rate
    // sheds far more bytes than the fault-free cell (which only loses
    // replicas displaced by fuzzer node removals that found no new home).
    let ceph_base = cell(Flavor::CephFs, "none");
    let lossy = cell(Flavor::CephFs, "lossy");
    assert!(
        lossy.eval.bytes_lost > 2 * ceph_base.eval.bytes_lost,
        "lossy profile must shed migration bytes well beyond baseline \
         ({} vs {})",
        lossy.eval.bytes_lost,
        ceph_base.eval.bytes_lost
    );
    assert_ne!(lossy.eval.campaign, ceph_base.eval.campaign);
}
