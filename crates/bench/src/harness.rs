//! Shared evaluation harness: runs campaigns against the simulated
//! flavors, attributes detector confirmations to ground-truth bugs through
//! the simulator oracle, and aggregates per-strategy results.

use adaptors::SimAdaptor;
use simdfs::{BugSet, Flavor};
use std::collections::{BTreeMap, BTreeSet};
use themis::{
    by_name, run_campaign_with_mode, CampaignConfig, CampaignObserver, CampaignResult,
    ConfirmedFailure, DetectorConfig, ExecutionMode, VarianceWeights,
};

/// Outcome of one evaluated campaign, with oracle attribution.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Target flavor.
    pub flavor: Flavor,
    /// Strategy name.
    pub strategy: String,
    /// Fault profile injected into the simulator ("none" when unfaulted).
    pub fault_profile: String,
    /// Bytes the simulator lost to faulty/lossy migrations.
    pub bytes_lost: u64,
    /// Distinct ground-truth bug ids credited with confirmed failures.
    pub found: BTreeSet<String>,
    /// Virtual minute each found bug first triggered.
    pub first_trigger_min: BTreeMap<String, u64>,
    /// Confirmed failures with no triggered bug behind them (false
    /// positives, before any deduplication).
    pub false_positive_confirms: u64,
    /// Distinct (kind) false-positive classes (the paper counts distinct
    /// reported failures).
    pub false_positive_kinds: BTreeSet<String>,
    /// The raw campaign result (coverage trace, ops, candidates, ...).
    pub campaign: CampaignResult,
}

/// Observer that attributes confirmations via the simulator oracle.
struct Attribution {
    handle: adaptors::SimHandle,
    found: BTreeSet<String>,
    first_trigger_min: BTreeMap<String, u64>,
    fp_confirms: u64,
    fp_kinds: BTreeSet<String>,
}

impl CampaignObserver for Attribution {
    fn on_confirmed(&mut self, f: &ConfirmedFailure) {
        let sim = self.handle.borrow();
        let triggered = sim.oracle_triggered();
        if triggered.is_empty() {
            self.fp_confirms += 1;
            self.fp_kinds.insert(f.kind.to_string());
        } else {
            for id in triggered {
                self.found.insert(id.to_string());
            }
        }
    }

    fn on_iteration(&mut self, now_ms: u64) {
        // Record first-trigger times before a reset re-arms the oracle.
        let sim = self.handle.borrow();
        for id in sim.oracle_triggered() {
            self.first_trigger_min
                .entry(id.to_string())
                .or_insert(now_ms / 60_000);
        }
    }
}

/// Runs one attributed campaign.
pub fn run_eval(
    flavor: Flavor,
    strategy_name: &str,
    bugs: BugSet,
    hours: u64,
    seed: u64,
    threshold_t: f64,
    weights: VarianceWeights,
) -> EvalResult {
    run_eval_faulted(
        flavor,
        strategy_name,
        bugs,
        hours,
        seed,
        threshold_t,
        weights,
        "none",
    )
}

/// Like [`run_eval`] but with a deterministic fault plan injected into the
/// simulator. `fault_profile` must be one of
/// [`simdfs::FaultPlan::profiles`]; the plan is derived from
/// `(profile, seed)` so the whole cell stays a pure function of its grid
/// coordinates.
#[allow(clippy::too_many_arguments)]
pub fn run_eval_faulted(
    flavor: Flavor,
    strategy_name: &str,
    bugs: BugSet,
    hours: u64,
    seed: u64,
    threshold_t: f64,
    weights: VarianceWeights,
    fault_profile: &str,
) -> EvalResult {
    run_eval_mode(
        flavor,
        strategy_name,
        bugs,
        hours,
        seed,
        threshold_t,
        weights,
        fault_profile,
        ExecutionMode::Accumulate,
    )
}

/// Like [`run_eval_faulted`] but under an explicit campaign execution
/// mode — the entry point the clean-slate determinism test and the
/// `BENCH_2.json` replay-vs-redeploy measurements use.
#[allow(clippy::too_many_arguments)]
pub fn run_eval_mode(
    flavor: Flavor,
    strategy_name: &str,
    bugs: BugSet,
    hours: u64,
    seed: u64,
    threshold_t: f64,
    weights: VarianceWeights,
    fault_profile: &str,
    mode: ExecutionMode,
) -> EvalResult {
    eval_inner(
        flavor,
        strategy_name,
        bugs,
        hours,
        seed,
        threshold_t,
        weights,
        fault_profile,
        mode,
        true,
    )
}

/// Clean-slate evaluation with the simulator's snapshot capability
/// switched off: every iteration re-establishes the initial state through
/// a full redeploy. This is the baseline the `BENCH_2.json` measurements
/// compare snapshot-restore throughput against. Note its virtual-time
/// axis differs from the snapshot path (a redeploy charges one virtual
/// minute; a restore is free), so only wall-clock throughput — not
/// per-campaign results — is comparable.
#[allow(clippy::too_many_arguments)]
pub fn run_eval_redeploy(
    flavor: Flavor,
    strategy_name: &str,
    bugs: BugSet,
    hours: u64,
    seed: u64,
    threshold_t: f64,
    weights: VarianceWeights,
    fault_profile: &str,
) -> EvalResult {
    eval_inner(
        flavor,
        strategy_name,
        bugs,
        hours,
        seed,
        threshold_t,
        weights,
        fault_profile,
        ExecutionMode::FullReplay,
        false,
    )
}

#[allow(clippy::too_many_arguments)]
fn eval_inner(
    flavor: Flavor,
    strategy_name: &str,
    bugs: BugSet,
    hours: u64,
    seed: u64,
    threshold_t: f64,
    weights: VarianceWeights,
    fault_profile: &str,
    mode: ExecutionMode,
    use_snapshots: bool,
) -> EvalResult {
    let mut adaptor = SimAdaptor::new(flavor, bugs);
    adaptor.set_snapshot_capability(use_snapshots);
    // Nothing in the eval pipeline reads the rendered command log; skip
    // the per-send operation clone it would cost.
    adaptor.command_log_cap = 0;
    eval_prepared(
        &mut adaptor,
        flavor,
        strategy_name,
        hours,
        seed,
        threshold_t,
        weights,
        fault_profile,
        mode,
    )
}

/// Runs one attributed campaign on an already-deployed adaptor. The
/// adaptor must be at its post-deploy initial state (fresh, or rewound
/// via [`SimAdaptor::restore_to_base`]); everything per-cell — fault
/// plan, strategy, campaign config — is installed here, so the result is
/// a pure function of the arguments regardless of what the adaptor ran
/// before.
#[allow(clippy::too_many_arguments)]
fn eval_prepared(
    adaptor: &mut SimAdaptor,
    flavor: Flavor,
    strategy_name: &str,
    hours: u64,
    seed: u64,
    threshold_t: f64,
    weights: VarianceWeights,
    fault_profile: &str,
    mode: ExecutionMode,
) -> EvalResult {
    let mut strat =
        by_name(strategy_name).unwrap_or_else(|| panic!("unknown strategy {strategy_name}"));
    let handle = adaptor.handle();
    let plan = simdfs::FaultPlan::named(fault_profile, seed)
        .unwrap_or_else(|| panic!("unknown fault profile {fault_profile}"));
    handle.borrow_mut().set_fault_plan(plan);
    let mut obs = Attribution {
        handle: handle.clone(),
        found: BTreeSet::new(),
        first_trigger_min: BTreeMap::new(),
        fp_confirms: 0,
        fp_kinds: BTreeSet::new(),
    };
    let cfg = CampaignConfig {
        budget_ms: hours * 3_600_000,
        seed,
        detector: DetectorConfig {
            threshold_t,
            ..Default::default()
        },
        weights,
        ..Default::default()
    };
    let campaign = run_campaign_with_mode(strat.as_mut(), adaptor, &cfg, &mut obs, mode);
    let bytes_lost = handle.borrow().bytes_lost();
    EvalResult {
        flavor,
        strategy: strategy_name.to_string(),
        fault_profile: fault_profile.to_string(),
        bytes_lost,
        found: obs.found,
        first_trigger_min: obs.first_trigger_min,
        false_positive_confirms: obs.fp_confirms,
        false_positive_kinds: obs.fp_kinds,
        campaign,
    }
}

/// Runs one attributed campaign from a fresh, dedicated deploy (scaled to
/// `scale_nodes` storage nodes when given). This is exactly what a
/// [`CellRunner`] cell produces, minus any reuse machinery — the
/// fresh-deploy reference the grid determinism tests compare against.
#[allow(clippy::too_many_arguments)]
pub fn run_eval_cell(
    flavor: Flavor,
    strategy_name: &str,
    bugs: BugSet,
    hours: u64,
    seed: u64,
    threshold_t: f64,
    weights: VarianceWeights,
    fault_profile: &str,
    scale_nodes: Option<u32>,
) -> EvalResult {
    let sim = match scale_nodes {
        Some(n) => simdfs::DfsSim::with_config(simdfs::FlavorConfig::scaled(flavor, n), bugs),
        None => simdfs::DfsSim::new(flavor, bugs),
    };
    let mut adaptor = SimAdaptor::from_handle(std::rc::Rc::new(std::cell::RefCell::new(sim)));
    adaptor.command_log_cap = 0;
    eval_prepared(
        &mut adaptor,
        flavor,
        strategy_name,
        hours,
        seed,
        threshold_t,
        weights,
        fault_profile,
        ExecutionMode::Accumulate,
    )
}

/// A reusable per-(worker, flavor) cell executor: deploys one simulator,
/// marks the post-deploy state as its base, and runs every subsequent cell
/// by rewinding to that base instead of redeploying. The rewind is
/// byte-identical to a fresh deploy (see [`simdfs::DfsSim::restore_to_base`]),
/// so `run` produces exactly what [`run_eval_faulted`] would — the grid
/// determinism tests pin that equivalence.
pub struct CellRunner {
    adaptor: SimAdaptor,
    flavor: Flavor,
    /// Full simulator deploys this runner has performed. Stays at 1 for
    /// the runner's whole lifetime — the counter the BENCH_4 artifact
    /// surfaces to prove reuse replaced per-cell redeploys.
    pub redeploys: u64,
}

impl CellRunner {
    /// Deploys one simulator for `flavor` (at `scale_nodes` storage nodes
    /// when given, the flavor's stock topology otherwise) and marks its
    /// base. This is the only full deploy the runner ever performs.
    pub fn new(flavor: Flavor, bugs: BugSet, scale_nodes: Option<u32>) -> Self {
        let sim = match scale_nodes {
            Some(n) => simdfs::DfsSim::with_config(simdfs::FlavorConfig::scaled(flavor, n), bugs),
            None => simdfs::DfsSim::new(flavor, bugs),
        };
        let mut adaptor = SimAdaptor::from_handle(std::rc::Rc::new(std::cell::RefCell::new(sim)));
        adaptor.command_log_cap = 0;
        adaptor.mark_base();
        CellRunner {
            adaptor,
            flavor,
            redeploys: 1,
        }
    }

    /// The flavor this runner deploys.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// Runs one attributed campaign cell from the base state.
    pub fn run(
        &mut self,
        strategy_name: &str,
        hours: u64,
        seed: u64,
        threshold_t: f64,
        weights: VarianceWeights,
        fault_profile: &str,
    ) -> EvalResult {
        let rewound = self.adaptor.restore_to_base();
        assert!(rewound, "CellRunner adaptors always carry a base mark");
        eval_prepared(
            &mut self.adaptor,
            self.flavor,
            strategy_name,
            hours,
            seed,
            threshold_t,
            weights,
            fault_profile,
            ExecutionMode::Accumulate,
        )
    }
}

/// Runs one strategy across all four flavors (on the grid executor's
/// worker pool) and returns the per-flavor results in `Flavor::all()`
/// order.
pub fn run_strategy_all_flavors(
    strategy_name: &str,
    bugs: BugSet,
    hours: u64,
    seed: u64,
    threshold_t: f64,
    weights: VarianceWeights,
) -> Vec<EvalResult> {
    let spec = crate::grid::GridSpec {
        threshold_t,
        weights,
        ..crate::grid::GridSpec::new(
            Flavor::all().to_vec(),
            vec![strategy_name.to_string()],
            vec![seed],
            bugs,
            hours,
        )
    };
    crate::grid::run_grid(&spec)
        .cells
        .into_iter()
        .map(|c| c.eval)
        .collect()
}

/// The full 5-strategy (plus ablation) x 4-flavor matrix, executed as one
/// grid so every (strategy, flavor) cell runs concurrently rather than one
/// strategy row at a time.
pub fn run_matrix(
    strategies: &[&str],
    bugs: BugSet,
    hours: u64,
    seed: u64,
) -> BTreeMap<String, Vec<EvalResult>> {
    let spec = crate::grid::GridSpec::new(
        Flavor::all().to_vec(),
        strategies.iter().map(|s| s.to_string()).collect(),
        vec![seed],
        bugs,
        hours,
    );
    let outcome = crate::grid::run_grid(&spec);
    let mut out: BTreeMap<String, Vec<EvalResult>> = BTreeMap::new();
    // Cells arrive in (flavor, strategy) row-major order; regroup into
    // per-strategy rows preserving `Flavor::all()` order.
    for cell in outcome.cells {
        out.entry(cell.strategy).or_default().push(cell.eval);
    }
    out
}

/// Renders a text table with aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("{h:<w$}  "));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{cell:<w$}  "));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_runs_and_attributes() {
        let r = run_eval(
            Flavor::GlusterFs,
            "Themis",
            BugSet::New,
            2,
            7,
            0.25,
            VarianceWeights::default(),
        );
        assert_eq!(r.strategy, "Themis");
        assert!(r.campaign.ops_sent > 100);
        // Found bugs must be real catalog ids.
        for id in &r.found {
            assert!(
                simdfs::bugs::catalog::all_new_bugs()
                    .iter()
                    .any(|b| b.id == id),
                "{id} not in catalog"
            );
        }
    }

    #[test]
    fn matrix_covers_all_flavors() {
        let m = run_matrix(&["Themis-"], BugSet::None, 1, 3);
        let rs = &m["Themis-"];
        assert_eq!(rs.len(), 4);
        let flavors: Vec<Flavor> = rs.iter().map(|r| r.flavor).collect();
        assert_eq!(flavors, Flavor::all().to_vec());
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "bb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        assert!(t.contains("a     bb"));
        assert!(t.lines().count() == 4);
    }
}
