//! Cross-crate integration tests: full Themis campaigns against the
//! simulated flavors, exercising generator, detector, adaptor and
//! simulator together.

use adaptors::SimAdaptor;
use simdfs::bugs::{BugSpec, Effect, FailureKind, Gate, Trigger};
use simdfs::{BugSet, Flavor, OpClass};
use themis::{
    by_name, run_campaign, CampaignConfig, CampaignObserver, ConfirmedFailure, DetectorConfig,
    ThemisStrategy,
};

fn short_cfg(hours: u64, seed: u64) -> CampaignConfig {
    CampaignConfig {
        budget_ms: hours * 3_600_000,
        seed,
        ..Default::default()
    }
}

#[test]
fn campaign_runs_on_every_flavor() {
    for flavor in Flavor::all() {
        let mut adaptor = SimAdaptor::new(flavor, BugSet::New);
        let mut strategy = ThemisStrategy::new();
        let res = run_campaign(
            &mut strategy,
            &mut adaptor,
            &short_cfg(1, 42),
            &mut themis::NullObserver,
        );
        assert!(
            res.ops_sent > 50,
            "{flavor}: too few ops ({})",
            res.ops_sent
        );
        assert!(
            res.final_coverage > 500,
            "{flavor}: coverage {}",
            res.final_coverage
        );
        assert!(res.iterations > 10, "{flavor}");
    }
}

#[test]
fn campaigns_are_deterministic_across_runs() {
    let run = || {
        let mut adaptor = SimAdaptor::new(Flavor::LeoFs, BugSet::New);
        let mut strategy = ThemisStrategy::new();
        run_campaign(
            &mut strategy,
            &mut adaptor,
            &short_cfg(1, 7),
            &mut themis::NullObserver,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.ops_sent, b.ops_sent);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.final_coverage, b.final_coverage);
    assert_eq!(a.confirmed.len(), b.confirmed.len());
    assert_eq!(a.candidates_raised, b.candidates_raised);
}

#[test]
fn different_seeds_explore_differently() {
    let run = |seed| {
        let mut adaptor = SimAdaptor::new(Flavor::Hdfs, BugSet::None);
        let mut strategy = ThemisStrategy::new();
        run_campaign(
            &mut strategy,
            &mut adaptor,
            &short_cfg(1, seed),
            &mut themis::NullObserver,
        )
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        (a.ops_sent, a.final_coverage),
        (b.ops_sent, b.final_coverage),
        "distinct seeds should produce distinct campaigns"
    );
}

/// A trivially triggerable seeded bug must be found and confirmed quickly,
/// and the confirmation must carry a usable reproduction log.
#[test]
fn seeded_easy_bug_is_confirmed_with_repro_log() {
    struct Counting {
        handle: adaptors::SimHandle,
        confirmed_with_bug: bool,
        log_len: usize,
    }
    impl CampaignObserver for Counting {
        fn on_confirmed(&mut self, f: &ConfirmedFailure) {
            if !self.handle.borrow().oracle_triggered().is_empty() {
                self.confirmed_with_bug = true;
                self.log_len = f.repro_log.len();
            }
        }
    }
    let easy = BugSpec {
        id: "EASY-1",
        platform: Flavor::GlusterFs,
        kind: FailureKind::ImbalancedStorage,
        title: "test bug: trips after a handful of creates",
        trigger: Trigger::op_count(vec![OpClass::Create], 3, 100),
        effect: Effect::HotspotPlacement { pct: 80 },
        gate: Gate::None,
        is_new: true,
    };
    let mut adaptor = SimAdaptor::new(Flavor::GlusterFs, BugSet::Custom(vec![easy]));
    let mut obs = Counting {
        handle: adaptor.handle(),
        confirmed_with_bug: false,
        log_len: 0,
    };
    let mut strategy = ThemisStrategy::new();
    let res = run_campaign(&mut strategy, &mut adaptor, &short_cfg(4, 3), &mut obs);
    assert!(
        obs.confirmed_with_bug,
        "easy hotspot bug must be confirmed within 4 virtual hours"
    );
    assert!(
        obs.log_len > 0,
        "confirmation must carry a reproduction log"
    );
    assert!(res.resets >= 1, "a confirmation resets the DFS");
    let rendered = res.confirmed[0].render_repro_log();
    assert!(rendered.contains("imbalance failure"));
}

/// No false positives on a bug-free build at the paper's optimal t = 25%.
#[test]
fn bug_free_build_yields_no_confirmations_at_t25() {
    for flavor in [Flavor::Hdfs, Flavor::LeoFs] {
        let mut adaptor = SimAdaptor::new(flavor, BugSet::None);
        let mut strategy = ThemisStrategy::new();
        let res = run_campaign(
            &mut strategy,
            &mut adaptor,
            &short_cfg(3, 99),
            &mut themis::NullObserver,
        );
        assert_eq!(
            res.confirmed.len(),
            0,
            "{flavor}: false positives on a bug-free build: {:?}",
            res.confirmed.iter().map(|c| c.kind).collect::<Vec<_>>()
        );
    }
}

/// A lower threshold must never raise fewer candidates than a higher one
/// on the identical load report (monotonicity of the detector).
#[test]
fn detector_threshold_monotonicity() {
    use themis::{Detector, DfsAdaptor};
    let mut adaptor = SimAdaptor::new(Flavor::GlusterFs, BugSet::None);
    // Drive some load to make the report non-trivial.
    let mut strategy = ThemisStrategy::new();
    let _ = run_campaign(
        &mut strategy,
        &mut adaptor,
        &short_cfg(1, 5),
        &mut themis::NullObserver,
    );
    let report = adaptor.load_report();
    let mut last = usize::MAX;
    for t in [0.05, 0.10, 0.20, 0.30] {
        let n = Detector::with_threshold(t).check(&report).len();
        assert!(n <= last, "candidates must not increase with t");
        last = n;
    }
}

/// All five comparison strategies plus the ablation complete campaigns on
/// the same target without panicking and with sane statistics.
#[test]
fn all_strategies_run_clean() {
    for name in [
        "Themis",
        "Fix_req",
        "Fix_conf",
        "Alternate",
        "Concurrent",
        "Themis-",
    ] {
        let mut strategy = by_name(name).expect("strategy exists");
        let mut adaptor = SimAdaptor::new(Flavor::CephFs, BugSet::New);
        let res = run_campaign(
            strategy.as_mut(),
            &mut adaptor,
            &short_cfg(1, 13),
            &mut themis::NullObserver,
        );
        assert!(res.ops_sent > 20, "{name}");
        assert_eq!(res.strategy, name);
    }
}

/// The detector config sweep used by Table 7 changes detector behaviour.
#[test]
fn threshold_affects_candidate_volume() {
    let run = |t: f64| {
        let mut adaptor = SimAdaptor::new(Flavor::GlusterFs, BugSet::None);
        let mut strategy = ThemisStrategy::new();
        let cfg = CampaignConfig {
            budget_ms: 2 * 3_600_000,
            seed: 21,
            detector: DetectorConfig {
                threshold_t: t,
                ..Default::default()
            },
            ..Default::default()
        };
        run_campaign(&mut strategy, &mut adaptor, &cfg, &mut themis::NullObserver).candidates_raised
    };
    let low = run(0.05);
    let high = run(0.35);
    assert!(
        low >= high,
        "a lower threshold should raise at least as many candidates ({low} vs {high})"
    );
}
