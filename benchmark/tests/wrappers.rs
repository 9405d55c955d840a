//! The wrappers change no behaviour: on reduced budgets, traced and timed
//! units give identical deterministic counters, the wrapped campaign
//! matrix equals `bench::run_grid` cell for cell, two workers equal one,
//! and the wrapped crash explorer equals the unwrapped one.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::time::Instant;
use themis_benchmark::campaigns::{matrix_spec, run_grid, MatrixScenario};
use themis_benchmark::crash::{sweep, CrashScenario};
use themis_benchmark::scale::{ScaleConfig, ScaleScenario};
use themis_benchmark::trace::Histogram;
use themis_benchmark::{diff_counters, Clock, Scenario};

fn traced() -> Clock {
    Clock::On {
        epoch: Instant::now(),
        span_cap: 1 << 16,
    }
}

/// Set-up, then one timed and one traced unit: both must pass their
/// checks and agree on every deterministic counter.
fn assert_traced_matches_timed(mut sc: Box<dyn Scenario>) {
    sc.setup();
    let timed = sc.run_unit(Clock::Off);
    let traced = sc.run_unit(traced());
    assert!(timed.failures.is_empty(), "{:?}", timed.failures);
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    assert!(timed.attempted > 0);
    let diff = diff_counters(&timed.counters, &traced.counters);
    assert!(diff.is_empty(), "traced unit changed behaviour: {diff:?}");
    assert!(!traced.rec.spans.is_empty(), "a traced unit keeps spans");
    assert!(timed.rec.spans.is_empty(), "a timed unit reads no clock");
    assert_eq!(timed.rec.busy_ns_total(), 0);
}

#[test]
fn campaign_units_trace_without_changing_counters() {
    for workers in [1, 2] {
        assert_traced_matches_timed(Box::new(MatrixScenario {
            spec: matrix_spec(7, 1, 1, workers),
        }));
    }
}

#[test]
fn scale_units_trace_without_changing_counters() {
    assert_traced_matches_timed(Box::new(ScaleScenario::new(ScaleConfig {
        nodes: 200,
        seeds: vec![1, 2, 3, 4],
        rounds: 4,
        expand_every: 2,
    })));
}

#[test]
fn crash_units_trace_without_changing_counters() {
    assert_traced_matches_timed(Box::new(CrashScenario::new(sweep(7))));
}

#[test]
fn wrapped_matrix_equals_run_grid_and_two_workers_equal_one() {
    let spec = matrix_spec(11, 1, 1, 1);
    let reference = bench::run_grid(&spec);
    let one = run_grid(&spec, Clock::Off);
    let two = run_grid(&matrix_spec(11, 1, 1, 2), traced());
    assert_eq!(reference.cells.len(), spec.cells());
    for ((r, a), b) in reference.cells.iter().zip(&one.cells).zip(&two.cells) {
        for e in [&a.eval, &b.eval] {
            assert_eq!(e.flavor, r.eval.flavor);
            assert_eq!(e.strategy, r.eval.strategy);
            assert_eq!(e.campaign, r.eval.campaign, "cell {}", r.index);
            assert_eq!(e.found, r.eval.found);
            assert_eq!(e.first_trigger_min, r.eval.first_trigger_min);
            assert_eq!(e.false_positive_confirms, r.eval.false_positive_confirms);
            assert_eq!(e.false_positive_kinds, r.eval.false_positive_kinds);
            assert_eq!(e.bytes_lost, r.eval.bytes_lost);
        }
        assert!(a.audit.is_ok() && b.audit.is_ok());
    }
    assert_eq!(two.workers.len(), 2);
}

#[test]
fn wrapped_crash_campaign_equals_unwrapped() {
    use adaptors::SimAdaptor;
    use simdfs::{BugSet, Flavor};
    use std::cell::RefCell;
    use std::rc::Rc;
    let cfg = &sweep(3)[0];
    for flavor in Flavor::all() {
        let mut fresh = SimAdaptor::new(flavor, BugSet::None);
        let want = themis::run_crash_campaign(&mut fresh, cfg).expect("explorer runs");
        let mut sim = simdfs::DfsSim::new(flavor, BugSet::None);
        sim.set_runtime_audit(true);
        let mut base = SimAdaptor::from_handle(Rc::new(RefCell::new(sim)));
        base.mark_base();
        let rec = Rc::new(RefCell::new(traced().recorder()));
        for _ in 0..2 {
            let (got, _) = themis_benchmark::crash::run_campaign(&mut base, cfg, &rec);
            let got = got.expect("explorer runs");
            assert_eq!(got, want, "{}", flavor.name());
        }
    }
}

#[test]
fn histogram_quantiles_land_within_three_percent() {
    let mut h = Histogram::default();
    for v in 1..=10_000u64 {
        h.record(v * 100);
    }
    for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
        let got = h.quantile_ns(q);
        assert!((got - want).abs() / want < 0.03, "q{q}: {got} vs {want}");
    }
    assert_eq!(h.total(), 10_000);
    assert_eq!(Histogram::default().quantile_ns(0.5), 0.0);
}
