//! One-shot performance measurements behind the `BENCH_1.json` artifact
//! written by `repro perf` (campaign throughput and grid-executor scaling
//! across worker counts), plus the host probe and JSON helpers the other
//! bench artifacts share.

use crate::grid::{run_cell, run_grid, GridSpec};
use crate::harness::run_eval;
use simdfs::{BugSet, Flavor};
use std::time::Instant;
use themis::VarianceWeights;

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

/// Host CPU topology, recorded in every BENCH_*.json so a timing can be
/// read against the parallelism the host offered.
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

/// Runs `spec` through the grid executor once per worker count
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
}
