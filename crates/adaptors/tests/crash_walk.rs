//! The crash explorer's forward walk against the per-point replay it
//! replaced. On the simulator, for every flavor, several explorer configs
//! and several seeds, `run_crash_campaign` must equal the replay reference
//! over the whole `CrashCampaignResult` — findings, labels and violation
//! details included — and leave the simulator where the reference does.

use adaptors::SimAdaptor;
use simdfs::{BugSet, Flavor};
use themis::{run_crash_campaign, CrashExplorerConfig, DfsAdaptor};

/// The explorer as it was before the walk: every crash point replays the
/// whole rebalance window from one mark. Kept verbatim as the reference.
mod reference {
    use themis::{
        CrashCampaignResult, CrashExplorationReport, CrashExplorerConfig, CrashFinding,
        CrashOracleViolation, DfsAdaptor, Operand, Operation, Operator,
    };

    fn record(
        report: &mut CrashExplorationReport,
        point: u64,
        label: String,
        violation: Option<CrashOracleViolation>,
    ) {
        report.explored += 1;
        match violation {
            Some(v) => {
                *report.by_class.entry(v.class.clone()).or_insert(0) += 1;
                report.findings.push(CrashFinding {
                    point,
                    label,
                    violation: v,
                });
            }
            None => report.clean += 1,
        }
    }

    pub fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Starts a rebalance and drives a fixed window of fixed-size quanta —
    /// identical driving on every replay, so crash-point indices recorded
    /// while enumerating address the same micro-steps when crashed. Stops
    /// early once an armed crash fires (time is frozen for the dead machine).
    fn drive_window(a: &mut dyn DfsAdaptor, step_ms: u64, ticks: u32) {
        a.rebalance();
        for _ in 0..ticks {
            if a.crash_points().is_some_and(|c| c.crash_fired()) {
                return;
            }
            a.wait(step_ms);
        }
    }

    /// Forks at the current state, crashes the target at crash point `k`
    /// within one replayed window, recovers, runs the oracle, and restores.
    /// Returns `None` if the armed crash never fired (the index lies beyond
    /// the window — a wasted run, which is the point of the random baseline).
    fn crash_once(
        a: &mut dyn DfsAdaptor,
        mark: u64,
        step_ms: u64,
        ticks: u32,
        k: u64,
    ) -> Result<Option<(String, Option<CrashOracleViolation>)>, String> {
        a.crash_points()
            .ok_or("target does not expose crash points")?
            .arm_crash_at(k);
        drive_window(a, step_ms, ticks);
        let cp = a.crash_points().expect("capability checked above");
        let outcome = match cp.recover() {
            Some(label) => {
                let violation = cp.check_invariants();
                Some((label, violation))
            }
            None => None,
        };
        a.crash_points().expect("capability checked above").disarm();
        if !a
            .snapshots()
            .ok_or("crash exploration requires fork/restore")?
            .restore(mark)
        {
            return Err("window fork mark died mid-exploration".into());
        }
        Ok(outcome)
    }

    pub fn explore_bounded(
        a: &mut dyn DfsAdaptor,
        cfg: &CrashExplorerConfig,
    ) -> Result<CrashExplorationReport, String> {
        let cp = a
            .crash_points()
            .ok_or("target does not expose crash points")?;
        let step_ms = cp.window_step_ms();
        cp.set_runtime_audit(true);
        let mark = a
            .snapshots()
            .ok_or("crash exploration requires fork/restore")?
            .snapshot();

        // Pass 1: enumerate.
        a.crash_points()
            .expect("capability checked above")
            .arm_enumeration();
        drive_window(a, step_ms, cfg.window_ticks);
        let labels = a.crash_points().expect("capability checked above").disarm();
        if !a
            .snapshots()
            .expect("capability checked above")
            .restore(mark)
        {
            return Err("window fork mark died after enumeration".into());
        }

        // Pass 2: one crash-and-recover replay per point, up to the bound.
        let mut report = CrashExplorationReport {
            points_enumerated: labels.len() as u64,
            forks: 1, // the enumeration replay
            ..CrashExplorationReport::default()
        };
        let explore = (labels.len() as u64).min(cfg.bound);
        for k in 0..explore {
            report.forks += 1;
            match crash_once(a, mark, step_ms, cfg.window_ticks, k)? {
                Some((label, violation)) => record(&mut report, k, label, violation),
                None => {
                    return Err(format!(
                        "enumerated crash point {k} did not fire on replay — \
                         the target's crash points are not deterministic"
                    ))
                }
            }
        }
        a.snapshots()
            .expect("capability checked above")
            .release(mark);
        Ok(report)
    }

    pub fn explore_random(
        a: &mut dyn DfsAdaptor,
        cfg: &CrashExplorerConfig,
        points: u64,
        budget: u64,
    ) -> Result<CrashExplorationReport, String> {
        let cp = a
            .crash_points()
            .ok_or("target does not expose crash points")?;
        let step_ms = cp.window_step_ms();
        cp.set_runtime_audit(true);
        let mark = a
            .snapshots()
            .ok_or("crash exploration requires fork/restore")?
            .snapshot();
        let horizon = points.saturating_mul(cfg.oversample).max(1);
        let mut report = CrashExplorationReport {
            points_enumerated: points,
            ..CrashExplorationReport::default()
        };
        for i in 0..budget {
            let k = splitmix64(cfg.seed ^ i) % horizon;
            report.forks += 1;
            if let Some((label, violation)) = crash_once(a, mark, step_ms, cfg.window_ticks, k)? {
                record(&mut report, k, label, violation);
            }
        }
        a.snapshots()
            .expect("capability checked above")
            .release(mark);
        Ok(report)
    }

    pub fn run_crash_campaign(
        a: &mut dyn DfsAdaptor,
        cfg: &CrashExplorerConfig,
    ) -> Result<CrashCampaignResult, String> {
        for i in 0..cfg.prime_files {
            let op = Operation::new(
                Operator::Create,
                vec![
                    Operand::FileName(format!("/cf{i}")),
                    Operand::Size(cfg.prime_file_bytes),
                ],
            );
            a.send(&op).map_err(|e| format!("priming create: {e}"))?;
        }
        let grow = Operation::new(
            Operator::AddStorage,
            vec![Operand::Size(cfg.prime_storage_bytes)],
        );
        a.send(&grow)
            .map_err(|e| format!("priming expansion: {e}"))?;

        let bounded = explore_bounded(a, cfg)?;
        let baseline = explore_random(a, cfg, bounded.points_enumerated, bounded.forks)?;
        Ok(CrashCampaignResult {
            target: a.name(),
            bounded,
            baseline,
        })
    }
}

/// The default config, a tight bound, and an unbounded sweep variant with
/// 12–20 MiB priming files and a 3–5 GiB added node; `seed` draws the
/// random arm's seed and the variant's priming.
fn configs(seed: u64) -> [CrashExplorerConfig; 3] {
    let r = reference::splitmix64(seed);
    [
        CrashExplorerConfig {
            seed: r,
            ..CrashExplorerConfig::default()
        },
        CrashExplorerConfig {
            bound: 7,
            seed: r,
            ..CrashExplorerConfig::default()
        },
        CrashExplorerConfig {
            bound: 4096,
            prime_file_bytes: (12 + r % 9) << 20,
            prime_storage_bytes: (3 + (r >> 8) % 3) << 30,
            seed: r >> 16,
            ..CrashExplorerConfig::default()
        },
    ]
}

#[test]
fn the_walk_equals_the_per_point_replay_on_every_flavor() {
    let mut random_hits = 0;
    for seed in [1, 2] {
        for cfg in configs(seed) {
            for flavor in Flavor::all() {
                let mut replayed = SimAdaptor::new(flavor, BugSet::None);
                let want = reference::run_crash_campaign(&mut replayed, &cfg).expect("replay runs");
                let mut walked = SimAdaptor::new(flavor, BugSet::None);
                let got = run_crash_campaign(&mut walked, &cfg).expect("walk runs");
                let at = format!("{} seed {seed} {cfg:?}", flavor.name());
                assert_eq!(got, want, "{at}");
                random_hits += got.baseline.explored;
                let (w, r) = (walked.handle(), replayed.handle());
                assert_eq!(w.borrow().fork_count(), 0, "{at}: every mark released");
                assert_eq!(
                    format!("{:?}", w.borrow().stats()),
                    format!("{:?}", r.borrow().stats()),
                    "{at}"
                );
                assert_eq!(walked.now_ms(), replayed.now_ms(), "{at}");
            }
        }
    }
    assert!(random_hits > 0, "the comparison covers random-arm findings");
}
