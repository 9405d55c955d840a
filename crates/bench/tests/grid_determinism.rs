//! A campaign is a pure function of (flavor, strategy, seed): the grid
//! executor must return bit-identical results to serial execution no
//! matter how many workers race over the matrix — and a clean-slate
//! full-replay campaign, which rewinds the simulator to its snapshot base
//! before every iteration, must replay bit-identically on every flavor,
//! including under an active fault profile.

use bench::harness::run_eval_mode;
use bench::{run_cell, run_grid, GridSpec};
use simdfs::{BugSet, Flavor};
use themis::{ExecutionMode, VarianceWeights};

#[test]
fn grid_results_are_identical_to_serial_at_any_worker_count() {
    // The reference is the fresh-deploy serial path (`run_cell`): one
    // brand-new simulator per cell, no reuse, no pool. Every worker count
    // — including 1, which also reuses simulators via base-restore — must
    // reproduce it bit for bit, both structurally and through the
    // canonical JSON report.
    let base = GridSpec::new(
        vec![Flavor::GlusterFs, Flavor::Hdfs],
        vec!["Themis".into()],
        vec![0xbe, 7],
        BugSet::New,
        1,
    );
    let serial: Vec<_> = (0..base.cells()).map(|i| run_cell(&base, i)).collect();
    for workers in [1, 2, 4, 8] {
        let spec = GridSpec {
            workers,
            ..base.clone()
        };
        let out = run_grid(&spec);
        assert_eq!(out.cells.len(), serial.len());
        assert_eq!(
            out.worker_stats.iter().map(|s| s.cells_run).sum::<u64>() as usize,
            serial.len()
        );
        // Reuse must cap deploys at workers × flavors (and at least one
        // worker deployed something).
        let redeploys = out.redeploys();
        assert!(
            redeploys >= 1 && redeploys <= (workers * spec.flavors.len()) as u64,
            "workers={workers}: {redeploys} redeploys"
        );
        for (g, s) in out.cells.iter().zip(&serial) {
            assert_eq!(g.index, s.index);
            assert_eq!(
                g.eval.campaign,
                s.eval.campaign,
                "worker count {workers} changed cell {} ({} / {} / seed {})",
                g.index,
                g.flavor.name(),
                g.strategy,
                g.seed
            );
            assert_eq!(
                g.eval.campaign.to_json(),
                s.eval.campaign.to_json(),
                "canonical JSON diverged at workers={workers}, cell {}",
                g.index
            );
            assert_eq!(g.eval.found, s.eval.found);
            assert_eq!(g.eval.first_trigger_min, s.eval.first_trigger_min);
            assert_eq!(
                g.eval.false_positive_confirms,
                s.eval.false_positive_confirms
            );
        }
    }
}

#[test]
fn scaled_grid_cells_are_identical_to_serial_reference() {
    // The BENCH_4 configuration in miniature: heavy cells on a scaled
    // topology, reused per-worker sims vs. fresh-deploy serial reference.
    let base = GridSpec {
        scale_nodes: Some(60),
        ..GridSpec::new(
            vec![Flavor::Hdfs, Flavor::CephFs],
            vec!["Themis".into()],
            vec![0xbe, 21],
            BugSet::None,
            1,
        )
    };
    let serial: Vec<_> = (0..base.cells()).map(|i| run_cell(&base, i)).collect();
    for workers in [2, 4] {
        let out = run_grid(&GridSpec {
            workers,
            ..base.clone()
        });
        for (g, s) in out.cells.iter().zip(&serial) {
            assert_eq!(
                g.eval.campaign.to_json(),
                s.eval.campaign.to_json(),
                "scaled cell {} diverged at workers={workers}",
                g.index
            );
        }
    }
}

#[test]
fn full_replay_is_deterministic_on_every_flavor() {
    // Every flavor, unfaulted and under an active fault profile: two
    // same-seed full-replay campaigns must agree down to iterations, ops,
    // detections, confirmed failures and their reproduction logs
    // (CampaignResult's PartialEq covers all of it, including the Arc'd
    // logs by content). Debug builds audit the simulator state after
    // every snapshot restore, so this also checks each rewind.
    for flavor in Flavor::all() {
        for profile in ["none", "crash"] {
            let run = || {
                run_eval_mode(
                    flavor,
                    "Themis",
                    BugSet::New,
                    1,
                    0xbe,
                    0.25,
                    VarianceWeights::default(),
                    profile,
                    ExecutionMode::FullReplay,
                )
            };
            let first = run();
            let second = run();
            assert_eq!(
                first.campaign,
                second.campaign,
                "full replay diverged between same-seed runs on {} / {profile}",
                flavor.name()
            );
            assert_eq!(first.found, second.found, "{} / {profile}", flavor.name());
            assert_eq!(
                first.first_trigger_min,
                second.first_trigger_min,
                "{} / {profile}",
                flavor.name()
            );
            assert_eq!(
                first.false_positive_confirms,
                second.false_positive_confirms,
                "{} / {profile}",
                flavor.name()
            );
            assert!(first.campaign.iterations > 0, "{}", flavor.name());
        }
    }
}
