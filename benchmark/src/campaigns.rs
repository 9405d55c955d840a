//! `paper-matrix`: the Table 3 campaign matrix, run cell by cell through
//! `bench::grid::steal_execute` exactly as `bench::run_grid` runs it, but
//! with the strategy and adaptor of every cell behind the pass-through
//! wrappers.

use crate::trace::{Boundary, Rec, Recorder, TracedAdaptor, TracedStrategy};
use crate::{Clock, Counters, Scenario, UnitOutcome};
use adaptors::{SimAdaptor, SimHandle};
use bench::{EvalResult, GridSpec};
use simdfs::{BugSet, DfsSim, FaultPlan, Flavor, SimStats};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use themis::{
    by_name, run_campaign_with_mode, CampaignConfig, CampaignObserver, ConfirmedFailure,
    DetectorConfig, ExecutionMode,
};

/// The benchmark's campaign matrix: every flavor × every Table 3
/// strategy × `seeds_per_cell` campaign seeds derived from `seed`, at
/// `hours` virtual hours per campaign, on `workers` grid workers.
pub fn matrix_spec(seed: u64, seeds_per_cell: u64, hours: u64, workers: usize) -> GridSpec {
    GridSpec {
        workers,
        ..GridSpec::new(
            Flavor::all().to_vec(),
            bench::tables::STRATEGIES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            (0..seeds_per_cell)
                .map(|k| crate::derive(seed, k))
                .collect(),
            BugSet::New,
            hours,
        )
    }
}

/// Attributes confirmations to ground-truth bugs through the simulator
/// oracle, as the evaluation harness does.
struct Attribution {
    handle: SimHandle,
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
        let sim = self.handle.borrow();
        for id in sim.oracle_triggered() {
            self.first_trigger_min
                .entry(id.to_string())
                .or_insert(now_ms / 60_000);
        }
    }
}

/// A stock cluster deployed and base-marked, as `bench::harness::CellRunner`
/// deploys one.
pub fn deploy(flavor: Flavor, bugs: BugSet) -> SimAdaptor {
    let sim = DfsSim::new(flavor, bugs);
    let mut adaptor = SimAdaptor::from_handle(Rc::new(RefCell::new(sim)));
    adaptor.command_log_cap = 0;
    adaptor.mark_base();
    adaptor
}

/// One finished campaign cell.
pub struct CellResult {
    /// Grid index of the cell.
    pub index: usize,
    /// The attributed campaign, comparable with `bench::run_grid`'s cells.
    pub eval: EvalResult,
    /// Simulator statistics accumulated by this cell alone.
    pub stats: SimStats,
    /// `DfsSim::audit_state` at the end of the cell.
    pub audit: Result<(), String>,
    /// What the wrappers recorded.
    pub rec: Recorder,
    /// Campaign wall nanoseconds (traced runs only).
    pub campaign_ns: u64,
    /// Base-restore nanoseconds (traced runs only).
    pub restore_ns: u64,
}

/// Simulator counters accumulated between two readings.
pub fn stats_delta(after: SimStats, before: SimStats) -> SimStats {
    let mut d = SimStats {
        ops: after.ops - before.ops,
        failed_ops: after.failed_ops - before.failed_ops,
        rebalance_rounds: after.rebalance_rounds - before.rebalance_rounds,
        migrations: after.migrations - before.migrations,
        bytes_migrated: after.bytes_migrated - before.bytes_migrated,
        bytes_lost: after.bytes_lost - before.bytes_lost,
        resets: after.resets - before.resets,
        ..SimStats::default()
    };
    for (i, c) in d.class_counts.iter_mut().enumerate() {
        *c = after.class_counts[i] - before.class_counts[i];
    }
    d
}

/// Runs grid cell `index` of `spec` on a base-marked adaptor: rewind to
/// base, install the cell's fault plan, and run the attributed campaign
/// with the strategy and adaptor wrapped. Apart from the wrappers this is
/// `CellRunner::run`.
pub fn run_cell(
    adaptor: &mut SimAdaptor,
    spec: &GridSpec,
    index: usize,
    rec: Recorder,
) -> CellResult {
    let (flavor, strategy, seed, fault_profile) = spec.coords(index);
    let timing = rec.is_timing();
    let t_restore = timing.then(Instant::now);
    assert!(
        adaptor.restore_to_base(),
        "benchmark clusters are base-marked"
    );
    let restore_ns = t_restore.map_or(0, |t| t.elapsed().as_nanos() as u64);

    let rec: Rec = Rc::new(RefCell::new(rec));
    rec.borrow_mut().set_cell(index as u32);
    let mut strat = TracedStrategy::new(
        by_name(strategy).unwrap_or_else(|| panic!("unknown strategy {strategy}")),
        rec.clone(),
    );
    let handle = adaptor.handle();
    let plan = FaultPlan::named(fault_profile, seed)
        .unwrap_or_else(|| panic!("unknown fault profile {fault_profile}"));
    handle.borrow_mut().set_fault_plan(plan);
    let base_stats = handle.borrow().stats();
    let mut obs = Attribution {
        handle: handle.clone(),
        found: BTreeSet::new(),
        first_trigger_min: BTreeMap::new(),
        fp_confirms: 0,
        fp_kinds: BTreeSet::new(),
    };
    let cfg = CampaignConfig {
        budget_ms: spec.hours * 3_600_000,
        seed,
        detector: DetectorConfig {
            threshold_t: spec.threshold_t,
            ..Default::default()
        },
        weights: spec.weights,
        ..Default::default()
    };
    let t_campaign = timing.then(Instant::now);
    let campaign = {
        let mut traced = TracedAdaptor::new(adaptor, rec.clone());
        run_campaign_with_mode(
            &mut strat,
            &mut traced,
            &cfg,
            &mut obs,
            ExecutionMode::Accumulate,
        )
    };
    let campaign_ns = t_campaign.map_or(0, |t| t.elapsed().as_nanos() as u64);
    drop(strat);
    let sim = handle.borrow();
    let eval = EvalResult {
        flavor,
        strategy: strategy.to_string(),
        fault_profile: fault_profile.to_string(),
        bytes_lost: sim.bytes_lost(),
        found: obs.found,
        first_trigger_min: obs.first_trigger_min,
        false_positive_confirms: obs.fp_confirms,
        false_positive_kinds: obs.fp_kinds,
        campaign,
    };
    let rec = Rc::try_unwrap(rec)
        .expect("every wrapper of the cell is dropped")
        .into_inner();
    CellResult {
        index,
        eval,
        stats: stats_delta(sim.stats(), base_stats),
        audit: sim.audit_state(),
        rec,
        campaign_ns,
        restore_ns,
    }
}

/// One pass over a grid: every cell plus the executor's counters.
pub struct GridRun {
    /// Cells in grid-index order.
    pub cells: Vec<CellResult>,
    /// Per-worker executor counters.
    pub workers: Vec<bench::WorkerStats>,
    /// Cluster deploys per worker.
    pub redeploys: Vec<u64>,
    /// Deploy nanoseconds per worker (traced runs only).
    pub deploy_ns: Vec<u64>,
}

/// Runs every cell of `spec` on `spec.workers` workers through the
/// program's work-stealing executor, one lazily deployed cluster per
/// (worker, flavor) rewound to base between cells, as `bench::run_grid`
/// does.
pub fn run_grid(spec: &GridSpec, clock: Clock) -> GridRun {
    let n = spec.cells();
    let workers = spec.workers.clamp(1, n.max(1));
    let per_flavor = n / spec.flavors.len();
    let redeploys: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let deploy_ns: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let (redeploys_ref, deploy_ns_ref) = (&redeploys, &deploy_ns);
    let (cells, stats) = bench::steal_execute(n, workers, |w| {
        let mut pool: Vec<Option<SimAdaptor>> = spec.flavors.iter().map(|_| None).collect();
        move |i| {
            let flavor = spec.coords(i).0;
            let adaptor = pool[i / per_flavor].get_or_insert_with(|| {
                let t0 = clock.timing().then(Instant::now);
                let a = deploy(flavor, spec.bugs.clone());
                redeploys_ref[w].fetch_add(1, Ordering::Relaxed);
                if let Some(t0) = t0 {
                    deploy_ns_ref[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                a
            });
            run_cell(adaptor, spec, i, clock.recorder())
        }
    });
    GridRun {
        cells,
        workers: stats,
        redeploys: redeploys
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect(),
        deploy_ns: deploy_ns
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect(),
    }
}

/// Campaign matrix workload: `paper-matrix` runs it on one grid worker;
/// the tests also run it on two.
pub struct MatrixScenario {
    /// The grid every unit of work runs.
    pub spec: GridSpec,
}

impl MatrixScenario {
    /// The grid's deterministic counters: cell results are pure functions
    /// of their coordinates, so every sum below repeats exactly whatever
    /// the worker count or steal schedule.
    fn counters(run: &GridRun, rec: &Recorder) -> Counters {
        let mut c = crate::recorder_counters(rec);
        let mut add = |k: &str, v: u64| *c.entry(k.to_string()).or_insert(0) += v;
        let mut digest = crate::Fnv::default();
        for cell in &run.cells {
            let (e, r) = (&cell.eval, &cell.eval.campaign);
            add("cells", 1);
            add("campaign.iterations", r.iterations);
            add("campaign.ops_sent", r.ops_sent);
            add("detector.candidates", r.candidates_raised);
            add("detector.filtered", r.filtered_by_double_check);
            add("campaign.confirmed", r.confirmed.len() as u64);
            add("campaign.resets", r.resets);
            add("campaign.coverage", r.final_coverage);
            add("campaign.bugs_found", e.found.len() as u64);
            add("campaign.false_positives", e.false_positive_confirms);
            add("campaign.bytes_lost", e.bytes_lost);
            crate::add_sim_stats(&mut add, &cell.stats);
            digest.write(r.to_json().as_bytes());
            for id in &e.found {
                digest.write(id.as_bytes());
            }
            for (id, min) in &e.first_trigger_min {
                digest.write(id.as_bytes());
                digest.write(&min.to_le_bytes());
            }
        }
        c.insert("campaign.digest".into(), digest.finish());
        c
    }
}

impl Scenario for MatrixScenario {
    fn setup(&mut self) -> crate::Setup {
        // The grid deploys one cluster per (worker, flavor) on first
        // contact in every pass; set-up builds as many, on this thread,
        // so a worker thread's wake-up latency does not count as set-up.
        let t0 = Instant::now();
        let pools: Vec<SimAdaptor> = (0..self.spec.workers.max(1))
            .flat_map(|_| &self.spec.flavors)
            .map(|f| deploy(*f, self.spec.bugs.clone()))
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        drop(pools);
        crate::Setup {
            secs,
            deploy_secs: secs,
        }
    }

    fn run_unit(&mut self, clock: Clock) -> UnitOutcome {
        let t0 = Instant::now();
        let run = run_grid(&self.spec, clock);
        let wall_s = t0.elapsed().as_secs_f64();
        let mut rec = Recorder::counting();
        let mut failures = Vec::new();
        let mut layer = BTreeMap::new();
        let (mut campaign_ns, mut restore_ns, mut iterations) = (0u64, 0u64, 0u64);
        for cell in &run.cells {
            if let Err(e) = &cell.audit {
                failures.push(format!(
                    "state audit failed after cell {} ({} {}): {e}",
                    cell.index,
                    cell.eval.flavor.name(),
                    cell.eval.strategy
                ));
            }
            campaign_ns += cell.campaign_ns;
            restore_ns += cell.restore_ns;
            iterations += cell.eval.campaign.iterations;
            rec.merge(&cell.rec, clock.span_cap());
        }
        let resets = rec.get(Boundary::Reset).calls;
        let counters = Self::counters(&run, &rec);
        let child_ns = rec.busy_ns_total();
        layer.insert(
            "campaign.self_s",
            campaign_ns.saturating_sub(child_ns) as f64 / 1e9,
        );
        layer.insert("base.restore.busy_s", restore_ns as f64 / 1e9);
        layer.insert(
            "grid.deploy_s",
            run.deploy_ns.iter().sum::<u64>() as f64 / 1e9,
        );
        let busy: Vec<f64> = run.workers.iter().map(|w| w.busy_ns as f64 / 1e9).collect();
        layer.insert("grid.busy_s.w0", busy.first().copied().unwrap_or(0.0));
        layer.insert(
            "grid.idle_s",
            (wall_s * busy.len() as f64 - busy.iter().sum::<f64>()).max(0.0),
        );
        layer.insert("grid.redeploys", run.redeploys.iter().sum::<u64>() as f64);
        // A rejection is the target's answer to a request the client made
        // invalid on purpose, and the exact-repeat check pins how many
        // there are; only a send the target could not serve fails.
        let sends = rec.sends();
        let failed = rec.down;
        UnitOutcome {
            wall_s,
            iterations,
            attempted: sends,
            failed,
            accepted: sends - rec.rejected - rec.down,
            forks: resets + run.cells.len() as u64,
            counters,
            layer,
            rec,
            failures,
        }
    }
}
