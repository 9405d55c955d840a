//! `crash-explore`: bounded crash-point exploration plus the equal-budget
//! random arm on every flavor, over a sweep of priming variants.

use crate::campaigns::stats_delta;
use crate::trace::{Rec, Recorder, TracedAdaptor};
use crate::{Clock, Counters, Scenario, Setup, UnitOutcome};
use adaptors::SimAdaptor;
use bench::crashbench::expected_classes;
use simdfs::{BugSet, Flavor, SimStats};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;
use themis::{run_crash_campaign, CrashCampaignResult, CrashExplorerConfig};

/// Crash-point bound of every variant: above the 200–300 points a window
/// enumerates, so the bounded arm explores every point it finds.
pub const BOUND: u64 = 4096;

/// Priming variants per unit.
pub const VARIANTS: u64 = 6;

/// The unit's priming variants for `seed`: file size and added-node
/// capacity vary around the explorer's defaults, and each variant seeds
/// its own random arm. The file count stays at the default, so every
/// seed's unit sends the same number of priming operations.
pub fn sweep(seed: u64) -> Vec<CrashExplorerConfig> {
    (0..VARIANTS)
        .map(|k| {
            let r = crate::derive(seed, 200 + k);
            CrashExplorerConfig {
                bound: BOUND,
                prime_file_bytes: (12 + r % 9) << 20,
                prime_storage_bytes: (3 + (r >> 8) % 3) << 30,
                seed: r >> 16,
                ..CrashExplorerConfig::default()
            }
        })
        .collect()
}

/// A stock bug-free cluster, deployed and base-marked, with the runtime
/// audit on (the audit flag is not part of the base mark).
fn deploy(flavor: Flavor) -> SimAdaptor {
    let a = crate::campaigns::deploy(flavor, BugSet::None);
    a.handle().borrow_mut().set_runtime_audit(true);
    a
}

/// Runs one crash campaign through the wrappers on a base-marked cluster,
/// returning it with the simulator statistics it accumulated. Each
/// replay's restore rewinds those statistics, so they hold the priming's
/// work only; the wrappers' balancer call counts carry the replays.
pub fn run_campaign(
    adaptor: &mut SimAdaptor,
    cfg: &CrashExplorerConfig,
    rec: &Rec,
) -> (Result<CrashCampaignResult, String>, SimStats) {
    assert!(
        adaptor.restore_to_base(),
        "benchmark clusters are base-marked"
    );
    let handle = adaptor.handle();
    let base = handle.borrow().stats();
    let result = run_crash_campaign(&mut TracedAdaptor::new(adaptor, rec.clone()), cfg);
    let stats = stats_delta(handle.borrow().stats(), base);
    (result, stats)
}

/// The `crash-explore` workload.
pub struct CrashScenario {
    variants: Vec<CrashExplorerConfig>,
    clusters: Vec<SimAdaptor>,
}

impl CrashScenario {
    /// A workload over the given variants; clusters are built by `setup`.
    pub fn new(variants: Vec<CrashExplorerConfig>) -> Self {
        CrashScenario {
            variants,
            clusters: Vec::new(),
        }
    }
}

impl Scenario for CrashScenario {
    fn setup(&mut self) -> Setup {
        self.clusters.clear();
        let t0 = Instant::now();
        self.clusters = Flavor::all().into_iter().map(deploy).collect();
        let secs = t0.elapsed().as_secs_f64();
        Setup {
            secs,
            deploy_secs: secs,
        }
    }

    fn run_unit(&mut self, clock: Clock) -> UnitOutcome {
        let t0 = Instant::now();
        let rec: Rec = Rc::new(RefCell::new(clock.recorder()));
        let mut results: Vec<(usize, CrashCampaignResult)> = Vec::new();
        let mut failures = Vec::new();
        let mut stats = Vec::new();
        for (v, cfg) in self.variants.iter().enumerate() {
            for (slot, adaptor) in self.clusters.iter_mut().enumerate() {
                let flavor = Flavor::all()[slot];
                rec.borrow_mut().set_cell((v * 4 + slot) as u32);
                let (outcome, s) = run_campaign(adaptor, cfg, &rec);
                stats.push(s);
                match outcome {
                    Ok(r) => results.push((slot, r)),
                    Err(e) => failures.push(format!(
                        "explorer error on {} variant {v}: {e}",
                        flavor.name()
                    )),
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let rec: Recorder = Rc::try_unwrap(rec)
            .expect("every wrapper of the unit is dropped")
            .into_inner();

        // Across the sweep, the bounded arm must find every class the
        // flavor has a crash window for.
        let mut found: Vec<BTreeSet<&str>> = vec![BTreeSet::new(); Flavor::all().len()];
        for (slot, r) in &results {
            found[*slot].extend(r.bounded.by_class.keys().map(String::as_str));
        }
        for (slot, f) in Flavor::all().into_iter().enumerate() {
            for class in expected_classes(f) {
                if !found[slot].contains(class) {
                    failures.push(format!(
                        "{}: bounded exploration never found {class} across the sweep",
                        f.name()
                    ));
                }
            }
        }

        let mut c: Counters = crate::recorder_counters(&rec);
        let mut add = |k: String, v: u64| *c.entry(k).or_insert(0) += v;
        let mut forks = 0;
        for (_, r) in &results {
            for (arm, rep) in [("bounded", &r.bounded), ("baseline", &r.baseline)] {
                add(format!("crash.{arm}.points"), rep.points_enumerated);
                add(format!("crash.{arm}.explored"), rep.explored);
                add(format!("crash.{arm}.forks"), rep.forks);
                add(format!("crash.{arm}.clean"), rep.clean);
                for (class, n) in &rep.by_class {
                    add(format!("crash.{arm}.class.{class}"), *n);
                }
                forks += rep.forks;
            }
        }
        add("crash.campaigns".into(), results.len() as u64);
        for s in &stats {
            crate::add_sim_stats(&mut |k, v| add(k.to_string(), v), s);
        }
        let sends = rec.sends();
        let send_failed = rec.rejected + rec.down;
        UnitOutcome {
            wall_s,
            iterations: results.len() as u64,
            attempted: forks + failures.len() as u64,
            failed: failures.len() as u64,
            accepted: sends - send_failed,
            forks,
            counters: c,
            layer: BTreeMap::new(),
            rec,
            failures,
        }
    }
}
