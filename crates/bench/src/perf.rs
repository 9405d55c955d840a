//! One-shot performance measurements behind the `BENCH_1.json` and
//! `BENCH_2.json` artifacts, both written by `repro perf`: campaign
//! throughput, clean-slate full replay over the snapshot base versus a
//! redeploy-per-iteration baseline, fork/restore micro-costs, and
//! grid-executor scaling across worker counts.

use crate::grid::{run_cell, run_grid, GridSpec};
use crate::harness::{run_eval, run_eval_mode, run_eval_redeploy};
use simdfs::{BugSet, DfsRequest, DfsSim, Flavor, MIB};
use std::time::Instant;
use themis::{ExecutionMode, VarianceWeights};

/// One timed micro-measurement: `samples` batches of `iters_per_sample`
/// calls (see `sample`).
#[derive(Debug, Clone)]
pub struct RawMeasurement {
    /// `group/function` identifier.
    pub id: String,
    /// Samples taken.
    pub samples: u64,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest sample, seconds per iteration.
    pub min_s: f64,
    /// Slowest sample, seconds per iteration.
    pub max_s: f64,
}

/// Timing of one full campaign.
#[derive(Debug, Clone)]
pub struct CampaignPerf {
    /// Target flavor.
    pub flavor: Flavor,
    /// Virtual budget in hours.
    pub hours: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Timed repetitions (best run is reported).
    pub repeats: u32,
    /// Fuzzing iterations the campaign completed.
    pub iterations: u64,
    /// Operations sent.
    pub ops_sent: u64,
    /// Best wall seconds per campaign.
    pub wall_s: f64,
}

impl CampaignPerf {
    /// Fuzzing iterations per wall second.
    pub fn iters_per_sec(&self) -> f64 {
        self.iterations as f64 / self.wall_s
    }

    /// Operations per wall second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops_sent as f64 / self.wall_s
    }
}

/// Full-replay vs. redeploy-baseline timing of one clean-slate campaign.
///
/// The full-replay run restores the snapshot base before each iteration;
/// the redeploy run re-establishes initial state through `reset()` each
/// iteration and lives on a different virtual-time axis (a redeploy
/// charges one virtual minute), so the two are compared by wall-clock
/// throughput rather than per-campaign results.
#[derive(Debug, Clone)]
pub struct ReplayCampaignPerf {
    /// Target flavor.
    pub flavor: Flavor,
    /// Fault profile injected into every variant ("none" when unfaulted).
    pub fault_profile: String,
    /// Virtual budget in hours.
    pub hours: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Timed repetitions per variant (best run is reported).
    pub repeats: u32,
    /// Iterations of the full-replay campaign.
    pub iterations: u64,
    /// Operations sent by the full-replay campaign.
    pub ops_sent: u64,
    /// Iterations of the redeploy-baseline campaign.
    pub redeploy_iterations: u64,
    /// Best wall seconds with full replay over the snapshot base.
    pub replay_s: f64,
    /// Best wall seconds with the redeploy-per-iteration fallback.
    pub redeploy_s: f64,
}

impl ReplayCampaignPerf {
    /// Fuzzing iterations per wall second with full replay.
    pub fn replay_iters_per_sec(&self) -> f64 {
        self.iterations as f64 / self.replay_s
    }

    /// Fuzzing iterations per wall second with the redeploy fallback.
    pub fn redeploy_iters_per_sec(&self) -> f64 {
        self.redeploy_iterations as f64 / self.redeploy_s
    }

    /// Full-replay-over-redeploy throughput ratio (iterations per wall
    /// second).
    pub fn speedup_vs_redeploy(&self) -> f64 {
        self.replay_iters_per_sec() / self.redeploy_iters_per_sec()
    }
}

/// Times the two clean-slate variants `repeats` times each and keeps the
/// best run of each.
pub fn measure_campaign_modes(
    flavor: Flavor,
    hours: u64,
    seed: u64,
    repeats: u32,
    fault_profile: &str,
) -> ReplayCampaignPerf {
    let repeats = repeats.max(1);
    let mut replay_s = f64::INFINITY;
    let mut redeploy_s = f64::INFINITY;
    let mut replay = None;
    let mut redeploy = None;
    let weights = VarianceWeights::default();
    for _ in 0..repeats {
        let start = Instant::now();
        let r = run_eval_mode(
            flavor,
            "Themis",
            BugSet::New,
            hours,
            seed,
            0.25,
            weights,
            fault_profile,
            ExecutionMode::FullReplay,
        );
        replay_s = replay_s.min(start.elapsed().as_secs_f64());
        replay = Some(r);

        let start = Instant::now();
        let r = run_eval_redeploy(
            flavor,
            "Themis",
            BugSet::New,
            hours,
            seed,
            0.25,
            weights,
            fault_profile,
        );
        redeploy_s = redeploy_s.min(start.elapsed().as_secs_f64());
        redeploy = Some(r);
    }
    let replay = replay.expect("repeats >= 1");
    let redeploy = redeploy.expect("repeats >= 1");
    ReplayCampaignPerf {
        flavor,
        fault_profile: fault_profile.to_string(),
        hours,
        seed,
        repeats,
        iterations: replay.campaign.iterations,
        ops_sent: replay.campaign.ops_sent,
        redeploy_iterations: redeploy.campaign.iterations,
        replay_s,
        redeploy_s,
    }
}

/// Micro-costs of the simulator's fork/restore journal, as raw
/// measurement records: one full `reset()` (what the redeploy
/// fallback pays per iteration), one fork mark, and
/// one execute-8-ops-then-restore round trip (what a full-replay
/// iteration pays to rewind an 8-op case).
pub fn measure_fork_restore() -> Vec<RawMeasurement> {
    let mut out = Vec::new();

    let mut sim = DfsSim::new(Flavor::GlusterFs, BugSet::New);
    out.push(sample("perf/full_reset", 10, 20, || sim.reset()));

    let mut sim = DfsSim::new(Flavor::GlusterFs, BugSet::New);
    let base = sim.fork();
    out.push(sample("perf/fork_mark", 10, 100, || {
        let id = sim.fork();
        sim.release(id);
    }));
    out.push(sample("perf/fork_restore_suffix8", 10, 50, || {
        for k in 0..8 {
            let _ = sim.execute(&DfsRequest::Create {
                path: format!("/suffix{k}"),
                size: 4 * MIB,
            });
        }
        assert!(sim.restore(base), "base mark must stay valid");
    }));
    out
}

/// Times `f` and reports seconds-per-iteration statistics over
/// `samples` batches of `iters` calls each.
pub(crate) fn sample(id: &str, samples: u64, iters: u64, mut f: impl FnMut()) -> RawMeasurement {
    let mut mean_acc = 0.0;
    let mut min_s = f64::INFINITY;
    let mut max_s = 0.0f64;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = start.elapsed().as_secs_f64() / iters as f64;
        mean_acc += per;
        min_s = min_s.min(per);
        max_s = max_s.max(per);
    }
    RawMeasurement {
        id: id.into(),
        samples,
        iters_per_sample: iters,
        mean_s: mean_acc / samples as f64,
        min_s,
        max_s,
    }
}

/// Host CPU topology, recorded in every BENCH_*.json so a CI scaling gate
/// can distinguish "no speedup" from "single-core host" and skip honestly.
#[derive(Debug, Clone, Copy)]
pub struct HostTopology {
    /// What `std::thread::available_parallelism()` reported (affinity- and
    /// cgroup-aware: the parallelism actually available to this process).
    pub available_parallelism: usize,
    /// Logical CPUs the OS exposes (`/proc/cpuinfo` processor count where
    /// readable; falls back to `available_parallelism`).
    pub logical_cores: usize,
}

impl HostTopology {
    /// Probes the current host.
    pub fn detect() -> Self {
        let ap = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let logical = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .filter(|&n| n > 0)
            .unwrap_or(ap);
        HostTopology {
            available_parallelism: ap,
            logical_cores: logical,
        }
    }

    /// Whether this host can exhibit real parallel speedup at all.
    pub fn multi_core(&self) -> bool {
        self.available_parallelism > 1
    }

    /// The topology as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"logical_cores\": {}}}",
            self.available_parallelism, self.logical_cores
        )
    }
}

/// Wall-clock of the same campaign matrix at several worker counts.
#[derive(Debug, Clone)]
pub struct GridScaling {
    /// Cells in the matrix (flavors x strategies x seeds).
    pub cells: usize,
    /// `(workers, wall_seconds)` per measured run.
    pub runs: Vec<(usize, f64)>,
    /// Whether every measured run (including the one-worker pass, which
    /// reuses simulators like the rest) matched the fresh-deploy serial
    /// reference cell by cell.
    pub identical_to_serial: bool,
}

impl GridScaling {
    /// Wall seconds for the given worker count, if measured.
    pub fn seconds_at(&self, workers: usize) -> Option<f64> {
        self.runs
            .iter()
            .find(|(w, _)| *w == workers)
            .map(|(_, s)| *s)
    }

    /// Serial-over-parallel speedup for the given worker count.
    pub fn speedup_at(&self, workers: usize) -> Option<f64> {
        Some(self.seconds_at(1)? / self.seconds_at(workers)?)
    }
}

/// Times one campaign `repeats` times and keeps the best run.
pub fn measure_campaign(flavor: Flavor, hours: u64, seed: u64, repeats: u32) -> CampaignPerf {
    let repeats = repeats.max(1);
    let mut wall_s = f64::INFINITY;
    let mut campaign = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = run_eval(
            flavor,
            "Themis",
            BugSet::New,
            hours,
            seed,
            0.25,
            VarianceWeights::default(),
        );
        wall_s = wall_s.min(start.elapsed().as_secs_f64());
        campaign = Some(r.campaign);
    }
    let campaign = campaign.expect("repeats >= 1");
    CampaignPerf {
        flavor,
        hours,
        seed,
        repeats,
        iterations: campaign.iterations,
        ops_sent: campaign.ops_sent,
        wall_s,
    }
}

/// The acceptance matrix: every flavor x {Themis, Themis-} x eight seeds
/// = 64 cells.
pub fn scaling_spec(hours: u64) -> GridSpec {
    GridSpec::new(
        Flavor::all().to_vec(),
        vec!["Themis".into(), "Themis-".into()],
        vec![0xbe, 7, 21, 42, 5, 11, 17, 99],
        BugSet::New,
        hours,
    )
}

/// Runs `spec` through the work-stealing executor once per worker count
/// (always including 1, the denominator of every speedup), timing each
/// pass, and checks every pass — the one-worker run included, since it
/// reuses simulators like the rest — against an untimed fresh-deploy
/// serial reference. Speedups therefore measure pure parallel scaling,
/// not deploy-elision, while the identity bit still pins the reuse
/// machinery to the reference semantics.
pub fn measure_grid_scaling(spec: &GridSpec, worker_counts: &[usize]) -> GridScaling {
    let reference: Vec<_> = (0..spec.cells()).map(|i| run_cell(spec, i)).collect();
    let mut runs = Vec::new();
    let mut identical = true;
    for workers in std::iter::once(1usize).chain(worker_counts.iter().copied().filter(|&w| w > 1)) {
        let spec = GridSpec {
            workers,
            ..spec.clone()
        };
        let start = Instant::now();
        let out = run_grid(&spec);
        runs.push((workers, start.elapsed().as_secs_f64()));
        identical &= out.cells.len() == reference.len()
            && out
                .cells
                .iter()
                .zip(&reference)
                .all(|(g, s)| g.index == s.index && g.eval.campaign == s.eval.campaign);
    }
    GridScaling {
        cells: spec.cells(),
        runs,
        identical_to_serial: identical,
    }
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".into()
    }
}

/// Renders the full artifact. Hand-rolled JSON: the workspace's serde shim
/// is a no-op, so this is the one place structure meets bytes.
pub fn bench_json(campaign: &CampaignPerf, grid: &GridScaling) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"themis-bench-v1\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!(
        "  \"host\": {},\n",
        HostTopology::detect().to_json()
    ));

    out.push_str("  \"campaign\": {\n");
    out.push_str(&format!(
        "    \"flavor\": \"{}\",\n",
        campaign.flavor.name()
    ));
    out.push_str(&format!("    \"hours\": {},\n", campaign.hours));
    out.push_str(&format!("    \"seed\": {},\n", campaign.seed));
    out.push_str(&format!("    \"repeats\": {},\n", campaign.repeats));
    out.push_str(&format!("    \"iterations\": {},\n", campaign.iterations));
    out.push_str(&format!("    \"ops_sent\": {},\n", campaign.ops_sent));
    out.push_str(&format!("    \"wall_s\": {},\n", json_f64(campaign.wall_s)));
    out.push_str(&format!(
        "    \"iters_per_sec\": {},\n",
        json_f64(campaign.iters_per_sec())
    ));
    out.push_str(&format!(
        "    \"ops_per_sec\": {}\n",
        json_f64(campaign.ops_per_sec())
    ));
    out.push_str("  },\n");

    out.push_str("  \"grid\": {\n");
    out.push_str(&format!("    \"cells\": {},\n", grid.cells));
    out.push_str(&format!(
        "    \"identical_to_serial\": {},\n",
        grid.identical_to_serial
    ));
    out.push_str("    \"runs\": [");
    for (i, (workers, secs)) in grid.runs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"workers\": {workers}, \"wall_s\": {}, \"speedup\": {}}}",
            json_f64(*secs),
            json_f64(grid.speedup_at(*workers).unwrap_or(f64::NAN)),
        ));
    }
    out.push_str("]\n  }\n}\n");
    out
}

pub(crate) fn push_measurements(out: &mut String, raw: &[RawMeasurement], indent: &str) {
    for (i, m) in raw.iter().enumerate() {
        out.push_str(indent);
        out.push_str("{\"id\": ");
        push_json_str(out, &m.id);
        out.push_str(&format!(
            ", \"samples\": {}, \"iters_per_sample\": {}, \"mean_s\": {}, \"min_s\": {}, \"max_s\": {}}}{}\n",
            m.samples,
            m.iters_per_sample,
            json_f64(m.mean_s),
            json_f64(m.min_s),
            json_f64(m.max_s),
            if i + 1 < raw.len() { "," } else { "" },
        ));
    }
}

/// Renders the clean-slate campaign artifact (`BENCH_2.json`).
pub fn bench2_json(
    cores: usize,
    fork_restore: &[RawMeasurement],
    campaigns: &[ReplayCampaignPerf],
    grid: &GridScaling,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"themis-bench-v2\",\n");
    out.push_str("  \"schema_version\": 2,\n");
    let topo = HostTopology::detect();
    out.push_str(&format!(
        "  \"host\": {{\"cores\": {cores}, \"available_parallelism\": {}, \"logical_cores\": {}}},\n",
        topo.available_parallelism, topo.logical_cores
    ));

    out.push_str("  \"fork_restore\": [\n");
    push_measurements(&mut out, fork_restore, "    ");
    out.push_str("  ],\n");

    out.push_str("  \"campaign_replay_vs_redeploy\": [\n");
    for (i, c) in campaigns.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"flavor\": \"{}\",\n", c.flavor.name()));
        out.push_str("      \"fault_profile\": ");
        push_json_str(&mut out, &c.fault_profile);
        out.push_str(",\n");
        out.push_str(&format!("      \"hours\": {},\n", c.hours));
        out.push_str(&format!("      \"seed\": {},\n", c.seed));
        out.push_str(&format!("      \"repeats\": {},\n", c.repeats));
        out.push_str(&format!("      \"iterations\": {},\n", c.iterations));
        out.push_str(&format!("      \"ops_sent\": {},\n", c.ops_sent));
        out.push_str(&format!(
            "      \"redeploy_iterations\": {},\n",
            c.redeploy_iterations
        ));
        out.push_str(&format!("      \"replay_s\": {},\n", json_f64(c.replay_s)));
        out.push_str(&format!(
            "      \"redeploy_s\": {},\n",
            json_f64(c.redeploy_s)
        ));
        out.push_str(&format!(
            "      \"replay_iters_per_sec\": {},\n",
            json_f64(c.replay_iters_per_sec())
        ));
        out.push_str(&format!(
            "      \"redeploy_iters_per_sec\": {},\n",
            json_f64(c.redeploy_iters_per_sec())
        ));
        out.push_str(&format!(
            "      \"speedup_vs_redeploy\": {}\n",
            json_f64(c.speedup_vs_redeploy())
        ));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < campaigns.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"grid\": {\n");
    out.push_str(&format!("    \"cells\": {},\n", grid.cells));
    out.push_str(&format!(
        "    \"identical_to_serial\": {},\n",
        grid.identical_to_serial
    ));
    out.push_str("    \"runs\": [");
    for (i, (workers, secs)) in grid.runs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"workers\": {workers}, \"wall_s\": {}, \"speedup\": {}}}",
            json_f64(*secs),
            json_f64(grid.speedup_at(*workers).unwrap_or(f64::NAN)),
        ));
    }
    out.push_str("]\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_perf_variants_agree_and_cached_is_not_slower() {
        let p = measure_campaign(Flavor::GlusterFs, 1, 0xbe, 1);
        assert!(p.iterations > 0 && p.ops_sent > 0);
        assert!(p.wall_s > 0.0);
    }

    #[test]
    fn bench_json_is_well_formed_enough() {
        let campaign = CampaignPerf {
            flavor: Flavor::Hdfs,
            hours: 1,
            seed: 7,
            repeats: 1,
            iterations: 100,
            ops_sent: 1000,
            wall_s: 0.5,
        };
        let grid = GridScaling {
            cells: 4,
            runs: vec![(1, 4.0), (4, 1.1)],
            identical_to_serial: true,
        };
        let j = bench_json(&campaign, &grid);
        assert!(j.contains("\"schema\": \"themis-bench-v1\""));
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"host\": {\"available_parallelism\": "));
        assert!(j.contains("\"iters_per_sec\": 200.0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!((campaign.iters_per_sec() - 200.0).abs() < 1e-9);
        assert_eq!(grid.speedup_at(4), Some(4.0 / 1.1));
    }

    #[test]
    fn fork_vs_replay_modes_agree_bit_for_bit() {
        let p = measure_campaign_modes(Flavor::GlusterFs, 1, 0xbe, 1, "none");
        assert!(p.iterations > 0 && p.ops_sent > 0);
        assert!(p.redeploy_iterations > 0);
        assert!(p.replay_s > 0.0 && p.redeploy_s > 0.0);
    }

    #[test]
    fn fork_restore_micro_measurements_cover_the_primitive() {
        let ms = measure_fork_restore();
        let ids: Vec<&str> = ms.iter().map(|m| m.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "perf/full_reset",
                "perf/fork_mark",
                "perf/fork_restore_suffix8"
            ]
        );
        for m in &ms {
            assert!(m.mean_s > 0.0 && m.min_s <= m.mean_s && m.mean_s <= m.max_s);
        }
    }

    #[test]
    fn scaling_spec_is_at_least_64_cells() {
        assert!(scaling_spec(1).cells() >= 64);
    }

    #[test]
    fn host_topology_probe_is_sane() {
        let t = HostTopology::detect();
        assert!(t.available_parallelism >= 1);
        assert!(t.logical_cores >= 1);
        let j = t.to_json();
        assert!(j.starts_with("{\"available_parallelism\": "));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn bench2_json_is_well_formed_enough() {
        let c = ReplayCampaignPerf {
            flavor: Flavor::CephFs,
            fault_profile: "crash".into(),
            hours: 1,
            seed: 7,
            repeats: 2,
            iterations: 100,
            ops_sent: 1000,
            redeploy_iterations: 40,
            replay_s: 0.5,
            redeploy_s: 0.8,
        };
        let grid = GridScaling {
            cells: 64,
            runs: vec![(1, 4.0), (4, 2.0)],
            identical_to_serial: true,
        };
        let raw = vec![RawMeasurement {
            id: "perf/fork_restore_suffix8 \"x\"".into(),
            samples: 3,
            iters_per_sample: 10,
            mean_s: 1e-6,
            min_s: 9e-7,
            max_s: 2e-6,
        }];
        let j = bench2_json(4, &raw, std::slice::from_ref(&c), &grid);
        assert!(j.contains("\"schema\": \"themis-bench-v2\""));
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"host\": {\"cores\": 4, \"available_parallelism\": "));
        assert!(j.contains("\"fault_profile\": \"crash\""));
        assert!(j.contains("\"speedup_vs_redeploy\": 4.0"));
        assert!(j.contains("\\\"x\\\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!((c.speedup_vs_redeploy() - 4.0).abs() < 1e-9);
    }
}
