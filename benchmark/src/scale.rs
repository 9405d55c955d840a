//! `scale-heavy`: one client drives the three `workload::heavy`
//! generators through `SimAdaptor::send` against each flavor's scaled
//! cluster, adding a storage node and rebalancing every few blocks.

use crate::campaigns::stats_delta;
use crate::trace::{Rec, Recorder, TracedAdaptor, TracedWorkload};
use crate::{Clock, Counters, Scenario, Setup, UnitOutcome};
use adaptors::SimAdaptor;
use bench::scale::MEAN_FIELD_TOLERANCE;
use simdfs::{BugSet, DfsSim, Flavor, FlavorConfig, MeanFieldModel};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use themis::spec::{Operand, Operation, Operator};
use themis::DfsAdaptor;
use workload::{DiurnalCycle, FlashCrowd, Workload, ZipfianHotspot};

/// Sizes of one `scale-heavy` unit.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Storage nodes of every flavor's scaled cluster.
    pub nodes: u32,
    /// Generator seed of each flavor, in `Flavor::all()` order.
    pub seeds: Vec<u64>,
    /// Rounds per flavor; one round draws one block from each generator.
    pub rounds: u64,
    /// A storage node is added and a rebalance run after every this many
    /// rounds.
    pub expand_every: u64,
}

impl ScaleConfig {
    /// The benchmark's unit for `seed`.
    pub fn for_seed(seed: u64) -> Self {
        ScaleConfig {
            nodes: 2_000,
            seeds: (0..4).map(|k| crate::derive(seed, 100 + k)).collect(),
            rounds: 12,
            expand_every: 3,
        }
    }
}

/// The deterministic outcome of one flavor's client run.
#[derive(Debug, Clone, Default)]
pub struct FlavorRun {
    /// Sends issued.
    pub sent: u64,
    /// Sends accepted.
    pub accepted: u64,
    /// Generator blocks sent.
    pub blocks: u64,
    /// Storage nodes added.
    pub expansions: u64,
    /// Mean-field observations.
    pub samples: u64,
    /// Largest |observed − predicted| mean utilization.
    pub max_dev: f64,
    /// Live files the client believes exist.
    pub live_files: u64,
    /// Final max-over-mean storage imbalance.
    pub imbalance: f64,
}

/// Mirrors an accepted operation's logical byte flow into the mean-field
/// model, using `sizes` to recover overwrite deltas.
fn track_logical_flow(
    op: &Operation,
    sizes: &mut BTreeMap<String, u64>,
    model: &mut MeanFieldModel,
) {
    let (path, size) = match (op.opds.first(), op.opds.get(1)) {
        (Some(Operand::FileName(p)), Some(Operand::Size(s))) => (p, *s),
        _ => return,
    };
    match op.opt {
        Operator::Create => {
            model.ingest(size);
            sizes.insert(path.clone(), size);
        }
        Operator::Append => {
            model.ingest(size);
            *sizes.entry(path.clone()).or_insert(0) += size;
        }
        Operator::Overwrite | Operator::TruncateOverwrite => {
            let old = sizes.insert(path.clone(), size).unwrap_or(0);
            if size >= old {
                model.ingest(size - old);
            } else {
                model.remove(old - size);
            }
        }
        _ => {}
    }
}

/// A mean-field model anchored on the cluster's current footprint.
fn anchor(sim: &DfsSim) -> MeanFieldModel {
    let c = sim.cluster();
    MeanFieldModel::new(
        c.total_capacity() - c.total_free(),
        c.total_capacity(),
        sim.config().replicas as u32,
    )
}

/// Polls of the balancer's quantum allowed for one rebalance to finish.
const MAX_REBALANCE_POLLS: u64 = 100_000;

/// Runs one flavor's client against a base-marked scaled cluster and
/// returns its outcome plus any failed checks.
pub fn run_flavor(
    adaptor: &mut SimAdaptor,
    cfg: &ScaleConfig,
    slot: usize,
    rec: &Rec,
) -> (FlavorRun, Vec<String>) {
    let seed = cfg.seeds[slot];
    let handle = adaptor.handle();
    let flavor = handle.borrow().flavor();
    let (volume_capacity, step_ms) = {
        let sim = handle.borrow();
        (
            sim.config().volume_capacity,
            sim.config().migrate_step_ms.max(1),
        )
    };
    let mut model = anchor(&handle.borrow());
    let mut sizes: BTreeMap<String, u64> = BTreeMap::new();
    let mut gens: Vec<TracedWorkload> = vec![
        TracedWorkload::new(Box::new(ZipfianHotspot::new(seed, 4096, 96)), rec.clone()),
        TracedWorkload::new(Box::new(DiurnalCycle::new(seed ^ 1, 4)), rec.clone()),
        TracedWorkload::new(Box::new(FlashCrowd::new(seed ^ 2, 6, 64, 8)), rec.clone()),
    ];
    let mut out = FlavorRun::default();
    let mut failures = Vec::new();
    let mut a = TracedAdaptor::new(adaptor, rec.clone());
    for round in 0..cfg.rounds {
        for g in &mut gens {
            for op in g.next_block() {
                out.sent += 1;
                if a.send(&op).is_ok() {
                    out.accepted += 1;
                    track_logical_flow(&op, &mut sizes, &mut model);
                }
            }
            out.blocks += 1;
            let observed = handle.borrow().cluster().util_stats().mean();
            out.max_dev = out.max_dev.max(model.observe(observed).abs());
            out.samples += 1;
        }
        if (round + 1) % cfg.expand_every == 0 {
            let grow = Operation::new(Operator::AddStorage, vec![Operand::Size(volume_capacity)]);
            out.sent += 1;
            if a.send(&grow).is_ok() {
                out.accepted += 1;
            }
            a.rebalance();
            let mut polls = 0;
            while !a.rebalance_done() {
                if polls == MAX_REBALANCE_POLLS {
                    failures.push(format!(
                        "{}: rebalance after expansion {} still running after {polls} polls",
                        flavor.name(),
                        out.expansions + 1
                    ));
                    break;
                }
                a.wait(step_ms);
                polls += 1;
            }
            out.expansions += 1;
            // The expansion changed the fleet: re-anchor on it.
            model = anchor(&handle.borrow());
        }
    }
    drop(a);
    if out.max_dev > MEAN_FIELD_TOLERANCE {
        failures.push(format!(
            "{}: mean-field deviation {} above tolerance {MEAN_FIELD_TOLERANCE}",
            flavor.name(),
            out.max_dev
        ));
    }
    let sim = handle.borrow();
    if let Err(e) = sim.audit_state() {
        failures.push(format!("{}: state audit failed: {e}", flavor.name()));
    }
    out.live_files = sizes.len() as u64;
    out.imbalance = sim.cluster().util_stats().imbalance_ratio();
    (out, failures)
}

/// The `scale-heavy` workload: one scaled cluster per flavor, deployed in
/// set-up and rewound to base before each flavor's client run.
pub struct ScaleScenario {
    cfg: ScaleConfig,
    clusters: Vec<SimAdaptor>,
}

impl ScaleScenario {
    /// A workload of the given sizes; clusters are built by `setup`.
    pub fn new(cfg: ScaleConfig) -> Self {
        ScaleScenario {
            cfg,
            clusters: Vec::new(),
        }
    }
}

impl Scenario for ScaleScenario {
    fn setup(&mut self) -> Setup {
        self.clusters.clear();
        let t0 = Instant::now();
        let mut deploy = 0.0;
        for flavor in Flavor::all() {
            let td = Instant::now();
            let sim =
                DfsSim::with_config(FlavorConfig::scaled(flavor, self.cfg.nodes), BugSet::None);
            deploy += td.elapsed().as_secs_f64();
            let mut a = SimAdaptor::from_handle(Rc::new(RefCell::new(sim)));
            a.command_log_cap = 0;
            a.mark_base();
            self.clusters.push(a);
        }
        Setup {
            secs: t0.elapsed().as_secs_f64(),
            deploy_secs: deploy,
        }
    }

    fn run_unit(&mut self, clock: Clock) -> UnitOutcome {
        let t0 = Instant::now();
        let rec: Rec = Rc::new(RefCell::new(clock.recorder()));
        let mut runs = Vec::new();
        let mut failures = Vec::new();
        let mut stats = Vec::new();
        let mut restore_ns = 0u64;
        for (slot, adaptor) in self.clusters.iter_mut().enumerate() {
            let tr = clock.timing().then(Instant::now);
            assert!(
                adaptor.restore_to_base(),
                "benchmark clusters are base-marked"
            );
            restore_ns += tr.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let base = adaptor.handle().borrow().stats();
            rec.borrow_mut().set_cell(slot as u32);
            let (run, f) = run_flavor(adaptor, &self.cfg, slot, &rec);
            stats.push(stats_delta(adaptor.handle().borrow().stats(), base));
            runs.push(run);
            failures.extend(f);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let rec: Recorder = Rc::try_unwrap(rec)
            .expect("every wrapper of the unit is dropped")
            .into_inner();
        let mut c: Counters = crate::recorder_counters(&rec);
        let mut add = |k: &str, v: u64| *c.entry(k.to_string()).or_insert(0) += v;
        for (run, s) in runs.iter().zip(&stats) {
            add("scale.sent", run.sent);
            add("scale.accepted", run.accepted);
            add("scale.blocks", run.blocks);
            add("scale.expansions", run.expansions);
            add("scale.mean_field_samples", run.samples);
            add("scale.live_files", run.live_files);
            // Floats enter the exact-repeat check bit for bit.
            add("scale.imbalance_bits", run.imbalance.to_bits());
            add("scale.max_dev_bits", run.max_dev.to_bits());
            crate::add_sim_stats(&mut add, s);
        }
        let mut layer = BTreeMap::new();
        layer.insert("base.restore.busy_s", restore_ns as f64 / 1e9);
        // A rejection is the target's answer to a request the client made
        // invalid on purpose, and the exact-repeat check pins how many
        // there are; only a send the target could not serve fails.
        let sends = rec.sends();
        let failed = rec.down;
        UnitOutcome {
            wall_s,
            iterations: runs.iter().map(|r| r.blocks).sum(),
            attempted: sends,
            failed,
            accepted: sends - rec.rejected - rec.down,
            forks: self.clusters.len() as u64,
            counters: c,
            layer,
            rec,
            failures,
        }
    }
}
