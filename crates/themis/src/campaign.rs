//! The campaign runner: the full testing loop of Figure 6.
//!
//! One campaign drives a strategy against one DFS adaptor for a virtual
//! time budget (24 hours in the paper): generate a case, execute it, read
//! the load report, compute the Load Variance Model, run the imbalance
//! detector, double-check candidates, feed the strategy, and reset the DFS
//! after every confirmed failure. Along the way it records the coverage
//! growth trace (Figure 12), detector statistics (Table 7's inputs) and
//! confirmed failures with reproduction logs.

use crate::adaptor::{DfsAdaptor, LoadReport};
use crate::detector::{Detector, DetectorConfig};
use crate::gen::MAX_SEQ_LEN;
use crate::lvm::{self, VarianceWeights};
use crate::model::InputModel;
use crate::report::{ConfirmedFailure, LoggedOp, ReproLog};
use crate::strategies::{ExecFeedback, GenCtx, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How the campaign positions the target between fuzzing iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Paper semantics: state accumulates across iterations and the target
    /// is only reset after a confirmed failure.
    #[default]
    Accumulate,
    /// Clean-slate semantics: every case runs against the initial state,
    /// re-established in full each iteration (a restore-to-base for
    /// snapshot-capable adaptors, a complete redeploy otherwise).
    FullReplay,
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Virtual time budget in ms (paper: 24 h).
    pub budget_ms: u64,
    /// RNG seed; a campaign is a pure function of (seed, strategy, target).
    pub seed: u64,
    /// Detector configuration (threshold `t` etc.).
    pub detector: DetectorConfig,
    /// Load-variance weighting factors.
    pub weights: VarianceWeights,
    /// Maximum sequence length (`max_n = 8`).
    pub max_seq_len: usize,
    /// Coverage-trace sampling period in virtual ms (paper: per minute).
    pub sample_period_ms: u64,
    /// Maximum operations retained in the reproduction log (a ring buffer:
    /// older entries are evicted). Bounds campaign memory on long
    /// failure-free stretches; the default of 4096 comfortably covers the
    /// operation sequences needed to reproduce every catalogued failure
    /// (reproductions in the paper are tens of operations long) while
    /// capping the log at a few hundred KiB.
    pub repro_window: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            budget_ms: 24 * 3_600_000,
            seed: 0x7e15,
            detector: DetectorConfig::default(),
            weights: VarianceWeights::default(),
            max_seq_len: MAX_SEQ_LEN,
            sample_period_ms: 60_000,
            repro_window: 4096,
        }
    }
}

impl CampaignConfig {
    /// A configuration with an hour-denominated budget.
    pub fn hours(h: u64) -> Self {
        CampaignConfig {
            budget_ms: h * 3_600_000,
            ..Default::default()
        }
    }
}

/// One point of the coverage growth trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoveragePoint {
    /// Virtual time (ms).
    pub time_ms: u64,
    /// Branches covered by then.
    pub branches: u64,
}

/// The outcome of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Target name (from the adaptor).
    pub target: String,
    /// Strategy name.
    pub strategy: String,
    /// Confirmed imbalance failures, in confirmation order.
    pub confirmed: Vec<ConfirmedFailure>,
    /// Candidates raised by the three anomaly detectors.
    pub candidates_raised: u64,
    /// Candidates the double-check filtered out as transient.
    pub filtered_by_double_check: u64,
    /// Coverage growth trace sampled every `sample_period_ms`.
    pub coverage_trace: Vec<CoveragePoint>,
    /// Final branch coverage.
    pub final_coverage: u64,
    /// Operations sent to the DFS.
    pub ops_sent: u64,
    /// Fuzzing iterations executed.
    pub iterations: u64,
    /// DFS resets performed (one per confirmed failure batch).
    pub resets: u64,
}

impl CampaignResult {
    /// Renders the full campaign report as JSON.
    ///
    /// Hand-rolled (the offline workspace has no `serde_json`) and fully
    /// deterministic: field order is fixed, floats use Rust's shortest
    /// round-trip formatting, and every sequence is emitted in its stored
    /// order. Because a campaign is a pure function of
    /// `(seed, strategy, target)`, two runs with the same inputs must
    /// produce *byte-identical* output from this method — the
    /// `same_seed_campaigns_render_byte_identical_reports` regression test
    /// and the determinism contract in DESIGN.md pin exactly that.
    pub fn to_json(&self) -> String {
        use crate::spec::json::escape_into;
        let mut s = String::with_capacity(4096);
        s.push_str("{\"target\":\"");
        escape_into(&mut s, &self.target);
        s.push_str("\",\"strategy\":\"");
        escape_into(&mut s, &self.strategy);
        s.push('"');
        s.push_str(&format!(
            ",\"candidates_raised\":{},\"filtered_by_double_check\":{},\
             \"final_coverage\":{},\"ops_sent\":{},\"iterations\":{},\
             \"resets\":{}",
            self.candidates_raised,
            self.filtered_by_double_check,
            self.final_coverage,
            self.ops_sent,
            self.iterations,
            self.resets
        ));
        s.push_str(",\"confirmed\":[");
        for (i, f) in self.confirmed.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"kind\":\"{}\",\"ratio\":{},\"time_ms\":{},\"case\":{},\
                 \"repro_log\":[",
                f.kind,
                f.ratio,
                f.time_ms,
                crate::spec::json::to_json(&f.case)
            ));
            for (j, e) in f.repro_log.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"time_ms\":{},\"ok\":{},\"op\":\"",
                    e.time_ms, e.ok
                ));
                escape_into(&mut s, &e.op.to_string());
                s.push_str("\"}");
            }
            s.push_str("]}");
        }
        s.push_str("],\"coverage_trace\":[");
        for (i, p) in self.coverage_trace.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"time_ms\":{},\"branches\":{}}}",
                p.time_ms, p.branches
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Observer hooks, used by the evaluation harness to attribute detector
/// confirmations to ground-truth bugs at the moment they happen.
pub trait CampaignObserver {
    /// A failure was confirmed (called before the DFS is reset).
    fn on_confirmed(&mut self, _failure: &ConfirmedFailure) {}

    /// An iteration completed at virtual time `now_ms`.
    fn on_iteration(&mut self, _now_ms: u64) {}
}

/// An observer that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl CampaignObserver for NullObserver {}

/// Runs one campaign to completion under the default
/// [`ExecutionMode::Accumulate`] semantics.
pub fn run_campaign(
    strategy: &mut dyn Strategy,
    adaptor: &mut dyn DfsAdaptor,
    cfg: &CampaignConfig,
    observer: &mut dyn CampaignObserver,
) -> CampaignResult {
    run_campaign_with_mode(strategy, adaptor, cfg, observer, ExecutionMode::Accumulate)
}

/// The campaign's target-positioning machinery, chosen once at startup.
enum Engine {
    /// No positioning: state accumulates (paper semantics).
    Accumulate,
    /// Clean-slate on a non-capable adaptor: full redeploy between
    /// iterations. `needs_reset` is false while the target is already at
    /// its initial state (campaign start, just after a confirm reset).
    Fallback { needs_reset: bool },
    /// Clean-slate on a snapshot-capable adaptor: `base` marks the initial
    /// state and is restored before every iteration. Restores rewind the
    /// target's raw clock, so virtual time is accounted as
    /// `consumed + (raw - t0)`: `t0` is the raw clock at the current
    /// base and `consumed` banks each finished iteration's elapsed time
    /// before the next restore rewinds it.
    Snap { base: u64, consumed: u64, t0: u64 },
}

/// Virtual-time offset of an engine: `vtime(raw, off(e))` maps a raw
/// target clock reading onto the campaign's monotone virtual axis.
fn off(e: &Engine) -> (u64, u64) {
    match e {
        Engine::Snap { consumed, t0, .. } => (*consumed, *t0),
        _ => (0, 0),
    }
}

fn vtime(raw: u64, (consumed, t0): (u64, u64)) -> u64 {
    consumed + raw.saturating_sub(t0)
}

/// Runs one campaign to completion under an explicit execution mode.
///
/// On a snapshot-capable adaptor, [`ExecutionMode::FullReplay`] reports
/// its results on a virtual-time axis starting at 0, because snapshot
/// restores rewind the target's raw clock.
pub fn run_campaign_with_mode(
    strategy: &mut dyn Strategy,
    adaptor: &mut dyn DfsAdaptor,
    cfg: &CampaignConfig,
    observer: &mut dyn CampaignObserver,
    mode: ExecutionMode,
) -> CampaignResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = InputModel::new();
    model.sync(&adaptor.inventory());
    let detector = Detector { cfg: cfg.detector };

    let mut engine = if mode == ExecutionMode::Accumulate {
        Engine::Accumulate
    } else if let Some(base) = adaptor.snapshots().map(|s| s.snapshot()) {
        Engine::Snap {
            base,
            consumed: 0,
            t0: adaptor.now_ms(),
        }
    } else {
        Engine::Fallback { needs_reset: false }
    };
    // In clean-slate modes the input model permanently describes the
    // initial state (that is what every case runs against); only the
    // accumulate engine tracks execution effects into it.
    let track_model = matches!(engine, Engine::Accumulate);

    let start_v = vtime(adaptor.now_ms(), off(&engine));
    let mut result = CampaignResult {
        target: adaptor.name(),
        strategy: strategy.name().to_string(),
        confirmed: Vec::new(),
        candidates_raised: 0,
        filtered_by_double_check: 0,
        coverage_trace: vec![CoveragePoint {
            time_ms: start_v,
            branches: adaptor.coverage(),
        }],
        final_coverage: 0,
        ops_sent: 0,
        iterations: 0,
        resets: 0,
    };
    let mut repro_log = ReproLog::new(cfg.repro_window);
    // Long-lived buffers reused across iterations (the hot loop itself is
    // allocation-free apart from case generation and confirmations).
    let mut report = LoadReport::default();
    let mut persistent: Vec<crate::detector::Candidate> = Vec::new();
    let mut next_sample = start_v + cfg.sample_period_ms;
    // Imbalance kinds observed on the previous iteration: a candidate must
    // persist across two consecutive iterations before the (expensive)
    // double-check runs — transient imbalance during an in-flight
    // migration is normal and acceptable (Section 2.1).
    let mut prior_kinds: Vec<crate::detector::ImbalanceKind> = Vec::new();
    // Online nodes seen in the previous report — used to detect partial
    // reports (crashed/partitioned/removed nodes) and restart the
    // persistence window instead of comparing incomparable reports.
    let mut prior_report_nodes: Vec<(u64, crate::adaptor::Role)> = Vec::new();
    let mut report_nodes: Vec<(u64, crate::adaptor::Role)> = Vec::new();
    let mut prior_variance = 0.0f64;

    loop {
        // Between iterations the snapshot engine's virtual position is
        // exactly the banked time (the raw clock is about to be rewound);
        // elsewhere raw time is the position.
        let vpos = match &engine {
            Engine::Snap { consumed, .. } => *consumed,
            _ => adaptor.now_ms(),
        };
        if vpos.saturating_sub(start_v) >= cfg.budget_ms {
            break;
        }
        result.iterations += 1;
        let case = {
            let mut ctx = GenCtx {
                model: &mut model,
                rng: &mut rng,
                max_len: cfg.max_seq_len,
            };
            strategy.next_case(&mut ctx)
        };

        // Position the target for this case.
        match &mut engine {
            Engine::Accumulate => {}
            Engine::Fallback { needs_reset } => {
                if *needs_reset {
                    adaptor.reset();
                }
            }
            Engine::Snap { base, consumed, t0 } => {
                if !adaptor.snapshots().expect("capable").restore(*base) {
                    // Defensive: the base mark was lost (cannot happen
                    // while the engine owns all resets). Rebuild from a
                    // redeploy.
                    adaptor.reset();
                    let raw = adaptor.now_ms();
                    *consumed += raw.saturating_sub(*t0);
                    *t0 = raw;
                    *base = adaptor.snapshots().expect("capable").snapshot();
                }
            }
        }

        // Execute the case; failed operations are normal fuzzing outcomes.
        for op in &case.ops {
            let ok = adaptor.send(op).is_ok();
            if track_model && ok {
                model.apply(op);
            }
            repro_log.push(LoggedOp {
                time_ms: vtime(adaptor.now_ms(), off(&engine)),
                op: op.clone(),
                ok,
            });
            result.ops_sent += 1;
        }
        if track_model {
            model.sync_topology(&adaptor.topology());
        }
        if let Engine::Fallback { needs_reset } = &mut engine {
            *needs_reset = true;
        }

        // Monitor, model, detect (Figure 6 steps 6-8). The report buffer
        // is reused across iterations.
        adaptor.load_report_into(&mut report);
        // Partial-report tolerance: when a node that reported last
        // iteration is missing now (crashed, partitioned away from the
        // monitor, or removed), comparisons against the previous iteration
        // are meaningless for the metrics that node contributed to —
        // restart the persistence window for those kinds rather than
        // letting a visibility flap masquerade as a persistent imbalance.
        // The invalidation is role-aware (a vanished management node
        // invalidates the CPU/network window, a vanished storage node the
        // storage window) and newly added nodes do NOT invalidate
        // anything: the LVM already excludes them until they pass warmup.
        // Crash candidates bypass persistence, so crash detection is
        // unaffected.
        report_nodes.clear();
        report_nodes.extend(
            report
                .nodes
                .iter()
                .filter(|n| n.online)
                .map(|n| (n.node, n.role)),
        );
        for role in [
            crate::adaptor::Role::Management,
            crate::adaptor::Role::Storage,
        ] {
            let vanished = prior_report_nodes
                .iter()
                .any(|e| e.1 == role && !report_nodes.contains(e));
            if vanished {
                prior_kinds.retain(|k| match role {
                    crate::adaptor::Role::Management => !matches!(
                        k,
                        crate::detector::ImbalanceKind::Cpu
                            | crate::detector::ImbalanceKind::Network
                    ),
                    crate::adaptor::Role::Storage => *k != crate::detector::ImbalanceKind::Storage,
                });
            }
        }
        std::mem::swap(&mut report_nodes, &mut prior_report_nodes);
        let vscore = lvm::score_warmed(&report, cfg.detector.warmup_ms);
        let candidates = detector.check(&report);

        // Persistence pre-filter: only kinds seen on consecutive
        // iterations become real candidates (crashes are immediate), and
        // the expensive double-check is deferred while the target is still
        // actively rebalancing — transient imbalance during an in-flight
        // migration is normal and acceptable (Section 2.1).
        let quiescent = adaptor.rebalance_done();
        persistent.clear();
        persistent.extend(
            candidates
                .iter()
                .filter(|c| {
                    c.kind == crate::detector::ImbalanceKind::Crash
                        || (quiescent && prior_kinds.contains(&c.kind))
                })
                .cloned(),
        );
        prior_kinds.clear();
        prior_kinds.extend(candidates.iter().map(|c| c.kind));
        let candidates = &persistent;

        let mut confirmed_now = false;
        if !candidates.is_empty() {
            result.candidates_raised += candidates.len() as u64;
            let survivors = detector.double_check(adaptor, &case);
            // The double-check rebalanced and settled the system; start the
            // persistence window fresh.
            prior_kinds.clear();
            let confirmed: Vec<_> = survivors
                .iter()
                .filter(|s| candidates.iter().any(|c| c.kind == s.kind))
                .collect();
            result.filtered_by_double_check +=
                candidates.len().saturating_sub(confirmed.len()) as u64;
            // One snapshot per confirmation batch: every failure confirmed
            // on this iteration shares the same log.
            let snapshot = if confirmed.is_empty() {
                None
            } else {
                Some(repro_log.snapshot())
            };
            for c in confirmed {
                let failure = ConfirmedFailure {
                    kind: c.kind,
                    ratio: c.ratio,
                    time_ms: vtime(adaptor.now_ms(), off(&engine)),
                    case: case.clone(),
                    repro_log: std::sync::Arc::clone(snapshot.as_ref().expect("non-empty")),
                };
                observer.on_confirmed(&failure);
                result.confirmed.push(failure);
                confirmed_now = true;
            }
        }

        // Feed the strategy (Figure 6 step 9).
        let weighted = vscore.weighted(&cfg.weights);
        let fb = ExecFeedback {
            variance: weighted,
            variance_delta: weighted - prior_variance,
            coverage: adaptor.coverage(),
            found_failure: confirmed_now,
        };
        prior_variance = weighted;
        strategy.feedback(&case, &fb);

        // On a confirmed failure the DFS has entered a failure state:
        // reset it to initial state and restart testing.
        if confirmed_now {
            adaptor.reset();
            model.sync(&adaptor.inventory());
            repro_log.clear();
            strategy.on_reset();
            result.resets += 1;
            prior_variance = 0.0;
            prior_kinds.clear();
            match &mut engine {
                Engine::Accumulate => {}
                // The target is already at its initial state; skip the
                // next iteration's redeploy.
                Engine::Fallback { needs_reset } => *needs_reset = false,
                Engine::Snap { base, consumed, t0 } => {
                    // The reset killed every mark: bank the elapsed time
                    // up to and including the reset, then mark the fresh
                    // initial state as the new base.
                    let raw = adaptor.now_ms();
                    *consumed += raw.saturating_sub(*t0);
                    *t0 = raw;
                    *base = adaptor.snapshots().expect("capable").snapshot();
                }
            }
        }

        // Sample the coverage trace on the virtual-minute grid, then bank
        // this iteration's elapsed time before the next restore rewinds
        // the raw clock.
        let vnow = vtime(adaptor.now_ms(), off(&engine));
        while next_sample <= vnow {
            result.coverage_trace.push(CoveragePoint {
                time_ms: next_sample,
                branches: adaptor.coverage(),
            });
            next_sample += cfg.sample_period_ms;
        }
        observer.on_iteration(vnow);
        if let Engine::Snap { consumed, .. } = &mut engine {
            *consumed = vnow;
        }
    }

    result.final_coverage = adaptor.coverage();
    let vend = match &engine {
        Engine::Snap { consumed, .. } => *consumed,
        _ => adaptor.now_ms(),
    };
    result.coverage_trace.push(CoveragePoint {
        time_ms: vend,
        branches: result.final_coverage,
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::{AdaptorError, LoadReport, NodeInventory, NodeLoad, Role};
    use crate::spec::Operation;
    use crate::strategies::ThemisMinus;

    /// A minimal scripted adaptor: balanced until `imbalance_after` ops,
    /// persistently imbalanced afterwards.
    struct FakeAdaptor {
        now: u64,
        ops: u64,
        coverage: u64,
        imbalance_after: u64,
        resets: u64,
    }

    impl FakeAdaptor {
        fn new(imbalance_after: u64) -> Self {
            FakeAdaptor {
                now: 0,
                ops: 0,
                coverage: 0,
                imbalance_after,
                resets: 0,
            }
        }

        fn imbalanced(&self) -> bool {
            self.ops >= self.imbalance_after
        }
    }

    impl DfsAdaptor for FakeAdaptor {
        fn name(&self) -> String {
            "fake".into()
        }

        fn send(&mut self, _op: &Operation) -> Result<(), AdaptorError> {
            self.ops += 1;
            self.now += 1_000;
            self.coverage += 3;
            Ok(())
        }

        fn load_report(&mut self) -> LoadReport {
            let hot = if self.imbalanced() { 4_000 } else { 1_000 };
            let mk = |id: u64, mib: u64| NodeLoad {
                node: id,
                role: Role::Storage,
                online: true,
                crashed: false,
                cpu: 0.0,
                rps: 0.0,
                read_io: 0.0,
                write_io: 0.0,
                storage: mib * 1024 * 1024,
                capacity: 8 << 30,
                uptime_ms: 1 << 40,
            };
            LoadReport {
                time_ms: self.now,
                nodes: vec![mk(1, 1_000), mk(2, 1_000), mk(3, hot)],
            }
        }

        fn rebalance(&mut self) {
            self.now += 5_000;
        }

        fn rebalance_done(&mut self) -> bool {
            true
        }

        fn wait(&mut self, ms: u64) {
            self.now += ms;
        }

        fn reset(&mut self) {
            self.resets += 1;
            self.ops = 0;
            self.now += 60_000;
        }

        fn coverage(&mut self) -> u64 {
            self.coverage
        }

        fn now_ms(&mut self) -> u64 {
            self.now
        }

        fn inventory(&mut self) -> NodeInventory {
            NodeInventory {
                mgmt: vec![0],
                storage: vec![1, 2, 3],
                volumes: vec![10, 11, 12],
                free_space: 1 << 40,
                files: vec![],
                dirs: vec![],
            }
        }
    }

    #[test]
    fn campaign_respects_budget() {
        let mut strat = ThemisMinus;
        let mut adaptor = FakeAdaptor::new(u64::MAX);
        let cfg = CampaignConfig {
            budget_ms: 600_000,
            ..Default::default()
        };
        let res = run_campaign(&mut strat, &mut adaptor, &cfg, &mut NullObserver);
        assert!(adaptor.now >= 600_000);
        assert!(res.iterations > 10);
        assert!(res.ops_sent >= res.iterations);
        assert!(
            res.confirmed.is_empty(),
            "balanced fake must confirm nothing"
        );
        assert_eq!(res.candidates_raised, 0);
    }

    #[test]
    fn campaign_confirms_persistent_imbalance_and_resets() {
        let mut strat = ThemisMinus;
        let mut adaptor = FakeAdaptor::new(20);
        let cfg = CampaignConfig {
            budget_ms: 400_000,
            ..Default::default()
        };
        let res = run_campaign(&mut strat, &mut adaptor, &cfg, &mut NullObserver);
        assert!(
            !res.confirmed.is_empty(),
            "persistent imbalance must be confirmed"
        );
        assert!(res.resets >= 1);
        assert_eq!(adaptor.resets, res.resets);
        let f = &res.confirmed[0];
        assert_eq!(f.kind, crate::detector::ImbalanceKind::Storage);
        assert!(!f.repro_log.is_empty());
        assert!(f.ratio > 1.25);
    }

    #[test]
    fn coverage_trace_is_monotonic_in_time_and_branches() {
        let mut strat = ThemisMinus;
        let mut adaptor = FakeAdaptor::new(u64::MAX);
        let cfg = CampaignConfig {
            budget_ms: 300_000,
            ..Default::default()
        };
        let res = run_campaign(&mut strat, &mut adaptor, &cfg, &mut NullObserver);
        assert!(res.coverage_trace.len() >= 5);
        for w in res.coverage_trace.windows(2) {
            assert!(w[1].time_ms >= w[0].time_ms);
            assert!(w[1].branches >= w[0].branches);
        }
        assert_eq!(
            res.final_coverage,
            res.coverage_trace.last().unwrap().branches
        );
    }

    #[test]
    fn observer_sees_confirmations() {
        struct Counting(u64);
        impl CampaignObserver for Counting {
            fn on_confirmed(&mut self, _f: &ConfirmedFailure) {
                self.0 += 1;
            }
        }
        let mut strat = ThemisMinus;
        let mut adaptor = FakeAdaptor::new(10);
        let cfg = CampaignConfig {
            budget_ms: 300_000,
            ..Default::default()
        };
        let mut obs = Counting(0);
        let res = run_campaign(&mut strat, &mut adaptor, &cfg, &mut obs);
        assert_eq!(obs.0, res.confirmed.len() as u64);
        assert!(obs.0 >= 1);
    }

    #[test]
    fn clean_slate_fallback_redeploys_between_iterations() {
        let mut strat = ThemisMinus;
        let mut adaptor = FakeAdaptor::new(u64::MAX);
        let cfg = CampaignConfig {
            budget_ms: 600_000,
            ..Default::default()
        };
        let res = run_campaign_with_mode(
            &mut strat,
            &mut adaptor,
            &cfg,
            &mut NullObserver,
            ExecutionMode::FullReplay,
        );
        // One redeploy before every iteration except the first.
        assert_eq!(adaptor.resets, res.iterations - 1);
        assert_eq!(res.resets, 0, "no failures, so no confirm resets");
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = CampaignConfig {
            budget_ms: 200_000,
            ..Default::default()
        };
        let run = || {
            let mut strat = ThemisMinus;
            let mut adaptor = FakeAdaptor::new(25);
            run_campaign(&mut strat, &mut adaptor, &cfg, &mut NullObserver)
        };
        let a = run();
        let b = run();
        assert_eq!(a.ops_sent, b.ops_sent);
        assert_eq!(a.confirmed.len(), b.confirmed.len());
        assert_eq!(a.final_coverage, b.final_coverage);
    }
}
