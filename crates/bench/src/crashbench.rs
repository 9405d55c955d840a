//! Bounded crash-exploration measurements behind the `BENCH_5.json`
//! artifact: one crash campaign per flavor (bounded crash-point
//! exploration of the migration pipeline plus the equal-budget
//! random-time baseline), run through the grid executor, with a
//! same-seed byte-identity check over the canonical report and fork
//! throughput kept outside the compared bytes.

use crate::grid::steal_execute;
use crate::perf::{json_f64, push_json_str, HostTopology};
use adaptors::SimAdaptor;
use simdfs::{BugSet, Flavor};
use std::time::Instant;
use themis::{run_crash_campaign, CrashCampaignResult, CrashExplorerConfig};

/// One flavor's crash campaign: both exploration arms.
#[derive(Debug, Clone)]
pub struct FlavorCrash {
    /// The simulated DFS flavor the campaign targeted.
    pub flavor: Flavor,
    /// Bounded arm + equal-budget random baseline.
    pub result: CrashCampaignResult,
}

/// The BENCH_5 measurement: every flavor's crash campaign, timed, plus a
/// from-scratch second pass compared byte for byte.
#[derive(Debug, Clone)]
pub struct CrashBench {
    /// One campaign per flavor, in [`Flavor::all`] order.
    pub cells: Vec<FlavorCrash>,
    /// Host CPU topology at measurement time.
    pub host: HostTopology,
    /// Wall seconds for the first (timed) pass.
    pub wall_s: f64,
    /// Whether a second from-scratch pass produced a byte-identical
    /// canonical report (wall time excluded — it is the one legitimate
    /// nondeterminism).
    pub identical: bool,
}

/// Crash-window bug classes bounded exploration must find on `flavor`.
/// Lost linkfiles need a DHT linkfile layer, which only the GlusterFS
/// model has (`hash_cache_ttl_ms > 0`); the two accounting classes are
/// flavor-independent.
pub fn expected_classes(flavor: Flavor) -> &'static [&'static str] {
    match flavor {
        Flavor::GlusterFs => &["double_counted_blocks", "lost_linkfile", "orphan_replica"],
        _ => &["double_counted_blocks", "orphan_replica"],
    }
}

impl FlavorCrash {
    /// Whether the bounded arm found every expected class for this flavor.
    pub fn all_classes_found(&self) -> bool {
        expected_classes(self.flavor)
            .iter()
            .all(|c| self.result.bounded.found(c))
    }

    /// Expected classes the random baseline did *not* find.
    pub fn baseline_missed(&self) -> usize {
        expected_classes(self.flavor)
            .iter()
            .filter(|c| !self.result.baseline.found(c))
            .count()
    }
}

impl CrashBench {
    /// Whether every flavor's bounded arm found every expected class.
    pub fn all_classes_found(&self) -> bool {
        self.cells.iter().all(|c| c.all_classes_found())
    }

    /// Whether some flavor's equal-budget random baseline missed at least
    /// one expected class (the claim that motivates bounded exploration).
    pub fn baseline_misses_at_least_one(&self) -> bool {
        self.cells.iter().any(|c| c.baseline_missed() >= 1)
    }

    /// Fork/restore cycles across both arms of every campaign.
    pub fn total_forks(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.result.bounded.forks + c.result.baseline.forks)
            .sum()
    }
}

/// Runs one crash campaign per flavor through the grid executor
/// (each cell is one flavor; a fresh simulator per cell, so cells are
/// order-independent). Panics if a target rejects the campaign — every
/// simulated flavor advertises fork/restore and crash points.
pub fn run_crash_cells(cfg: &CrashExplorerConfig, workers: usize) -> Vec<FlavorCrash> {
    let flavors = Flavor::all();
    let (cells, _stats) = steal_execute(flavors.len(), workers, |_worker| {
        |i: usize| {
            let flavor = Flavor::all()[i];
            let mut adaptor = SimAdaptor::new(flavor, BugSet::None);
            let result = run_crash_campaign(&mut adaptor, cfg)
                .unwrap_or_else(|e| panic!("crash campaign on {}: {e}", flavor.name()));
            FlavorCrash { flavor, result }
        }
    });
    cells
}

/// Runs the BENCH_5 measurement: one timed pass over every flavor, then
/// an untimed from-scratch second pass whose canonical report is compared
/// byte for byte with the first.
pub fn measure_crashbench(cfg: &CrashExplorerConfig, workers: usize) -> CrashBench {
    let start = Instant::now();
    let cells = run_crash_cells(cfg, workers);
    let wall_s = start.elapsed().as_secs_f64();
    let second = run_crash_cells(cfg, workers);
    let identical = canonical_json(&cells) == canonical_json(&second);
    CrashBench {
        cells,
        host: HostTopology::detect(),
        wall_s,
        identical,
    }
}

fn push_class_counts(out: &mut String, counts: &std::collections::BTreeMap<String, u64>) {
    out.push('{');
    for (i, (class, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(out, class);
        out.push_str(&format!(": {n}"));
    }
    out.push('}');
}

/// The deterministic section of the artifact: per-flavor crash-point
/// counts, fork budgets, and per-class findings for both arms. Two
/// same-seed passes must render this byte-identically; everything timed
/// stays out of it.
pub fn canonical_json(cells: &[FlavorCrash]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    ");
        push_json_str(&mut out, c.flavor.name());
        out.push_str(": {\n");
        out.push_str(&format!(
            "      \"crash_points\": {},\n",
            c.result.bounded.points_enumerated
        ));
        out.push_str(&format!(
            "      \"explored\": {},\n",
            c.result.bounded.explored
        ));
        out.push_str(&format!("      \"forks\": {},\n", c.result.bounded.forks));
        out.push_str(&format!("      \"clean\": {},\n", c.result.bounded.clean));
        out.push_str("      \"expected_classes\": [");
        for (j, class) in expected_classes(c.flavor).iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, class);
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "      \"all_classes_found\": {},\n",
            c.all_classes_found()
        ));
        out.push_str("      \"bounded_by_class\": ");
        push_class_counts(&mut out, &c.result.bounded.by_class);
        out.push_str(",\n");
        out.push_str("      \"baseline_by_class\": ");
        push_class_counts(&mut out, &c.result.baseline.by_class);
        out.push_str(",\n");
        out.push_str(&format!(
            "      \"baseline_forks\": {},\n",
            c.result.baseline.forks
        ));
        out.push_str(&format!(
            "      \"baseline_missed\": {}\n",
            c.baseline_missed()
        ));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  }");
    out
}

/// Renders the crash-exploration artifact (`BENCH_5.json`).
pub fn bench5_json(bench: &CrashBench) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"themis-bench-v5\",\n");
    out.push_str("  \"schema_version\": 5,\n");
    out.push_str(&format!("  \"host\": {},\n", bench.host.to_json()));
    out.push_str(&format!("  \"wall_s\": {},\n", json_f64(bench.wall_s)));
    out.push_str(&format!("  \"forks\": {},\n", bench.total_forks()));
    let fps = if bench.wall_s > 0.0 {
        bench.total_forks() as f64 / bench.wall_s
    } else {
        f64::NAN
    };
    out.push_str(&format!("  \"forks_per_s\": {},\n", json_f64(fps)));
    out.push_str(&format!("  \"identical\": {},\n", bench.identical));
    out.push_str(&format!(
        "  \"all_classes_found\": {},\n",
        bench.all_classes_found()
    ));
    out.push_str(&format!(
        "  \"baseline_misses_at_least_one\": {},\n",
        bench.baseline_misses_at_least_one()
    ));
    out.push_str("  \"targets\": ");
    out.push_str(&canonical_json(&bench.cells));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-budget config keeping the debug-build test fast: the
    /// bound caps crash-and-recover replays, not enumeration, so the
    /// per-flavor point counts still reflect the full window.
    fn small_cfg() -> CrashExplorerConfig {
        CrashExplorerConfig {
            bound: 6,
            ..CrashExplorerConfig::default()
        }
    }

    #[test]
    fn expected_classes_depend_on_the_linkfile_layer() {
        assert_eq!(expected_classes(Flavor::GlusterFs).len(), 3);
        for f in [Flavor::Hdfs, Flavor::CephFs, Flavor::LeoFs] {
            assert_eq!(expected_classes(f).len(), 2);
            assert!(!expected_classes(f).contains(&"lost_linkfile"));
        }
    }

    #[test]
    fn crash_cells_cover_every_flavor_in_order() {
        let cells = run_crash_cells(&small_cfg(), 2);
        let flavors: Vec<Flavor> = cells.iter().map(|c| c.flavor).collect();
        assert_eq!(flavors, Flavor::all().to_vec());
        for c in &cells {
            assert!(
                c.result.bounded.points_enumerated > 0,
                "{} enumerated no crash points",
                c.flavor.name()
            );
            assert_eq!(c.result.bounded.explored, 6, "{}", c.flavor.name());
            // Budget parity between the arms.
            assert_eq!(
                c.result.baseline.forks,
                c.result.bounded.forks,
                "{}",
                c.flavor.name()
            );
        }
    }

    #[test]
    fn measure_is_byte_identical_and_renders_well_formed_json() {
        let b = measure_crashbench(&small_cfg(), 2);
        assert!(b.identical, "same-seed crash campaigns diverged");
        assert_eq!(b.cells.len(), 4);
        assert!(b.total_forks() > 0);
        let j = bench5_json(&b);
        assert!(j.contains("\"schema\": \"themis-bench-v5\""));
        assert!(j.contains("\"schema_version\": 5"));
        assert!(j.contains("\"identical\": true"));
        assert!(j.contains("\"GlusterFS\": {"));
        assert!(j.contains("\"crash_points\": "));
        assert!(j.contains("\"bounded_by_class\": "));
        assert!(j.contains("\"baseline_missed\": "));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn full_budget_bounded_arm_beats_the_baseline_on_gluster() {
        // The acceptance claim at the artifact layer: with the default
        // budget the bounded arm finds every seeded class on GlusterFS
        // while the equal-budget random baseline misses at least one.
        // One flavor only — the four-flavor default run is repro's job.
        let mut adaptor = SimAdaptor::new(Flavor::GlusterFs, BugSet::None);
        let result = run_crash_campaign(&mut adaptor, &CrashExplorerConfig::default())
            .expect("campaign runs");
        let cell = FlavorCrash {
            flavor: Flavor::GlusterFs,
            result,
        };
        assert!(
            cell.all_classes_found(),
            "{:?}",
            cell.result.bounded.by_class
        );
        assert!(
            cell.baseline_missed() >= 1,
            "baseline found everything: {:?}",
            cell.result.baseline.by_class
        );
    }
}
