//! Regenerates every table and figure of the paper into `results/`.
//!
//! Usage: `repro [--workers N] [artifact...]` where artifact is one of
//! `table1..table8`, `figure2`, `figure12`, `perf`, `faults`, `scale`,
//! `crash`, or `all` (default; excludes `perf`, `faults`, `scale`, and
//! `crash`). An unknown artifact name or a `--workers` without a number
//! prints the usage line and exits with status 2 before anything is
//! written. The comparison tables share one matrix run (Table 3 /
//! Table 5 / Figure 12). `perf` times one campaign and grid-executor
//! scaling and dumps `results/BENCH_1.json`. `faults` sweeps the
//! fault-injection matrix at a reduced budget and writes
//! `results/faults.txt`. `scale` measures variance-sampling cost from 10
//! to 10k storage nodes plus heavy-traffic campaigns at scale and writes
//! `results/BENCH_3.json`. `crash` runs bounded crash-point exploration
//! of the migration pipeline (plus the equal-budget random baseline) on
//! every flavor and writes `results/BENCH_5.json`.
//!
//! `--workers N` pins the grid executor's worker count for every matrix
//! run whose spec does not set one explicitly (0 restores the default of
//! one worker per core), so scaling behavior is reproducible from the CLI
//! without editing code.

use bench::tables;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

const HOURS: u64 = 24;
const SEED: u64 = 0x7e15;

/// Every artifact name `repro` accepts.
const ARTIFACTS: &str = "table1 table2 table3 table4 table5 table6 table7 table8 figure2 \
                         figure12 perf faults scale crash all";

/// Reports a command-line error with the usage line; nothing is written.
fn usage_error(problem: &str) -> ExitCode {
    eprintln!(
        "repro: {problem}\nusage: repro [--workers N] [artifact...]\n  artifacts: {ARTIFACTS}"
    );
    ExitCode::from(2)
}

fn write(name: &str, content: &str) {
    fs::create_dir_all("results").expect("create results dir");
    let path = Path::new("results").join(name);
    fs::write(&path, content).expect("write artifact");
    println!("--- {name} ---\n{content}");
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Strip `--workers N` before artifact matching.
    if let Some(i) = args.iter().position(|a| a == "--workers") {
        let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
            return usage_error(&format!(
                "--workers needs a number, got {:?}",
                args.get(i + 1)
            ));
        };
        bench::grid::set_default_workers(n);
        args.drain(i..=i + 1);
    }
    if let Some(unknown) = args
        .iter()
        .find(|a| !ARTIFACTS.split_whitespace().any(|n| n == a.as_str()))
    {
        return usage_error(&format!("unknown artifact {unknown:?}"));
    }
    let want = |n: &str| args.is_empty() || args.iter().any(|a| a == n || a == "all");

    if want("table1") {
        write("table1.txt", &tables::table1());
    }
    if want("figure2") {
        write("figure2.txt", &tables::figure2());
    }
    if want("table2") {
        write("table2.txt", &tables::table2(HOURS, SEED));
    }
    if want("table3") || want("table5") || want("figure12") {
        let (t3, matrix) = tables::table3(HOURS, SEED);
        write("table3.txt", &t3);
        write("table5.txt", &tables::table5(&matrix));
        write("figure12.txt", &tables::figure12(&matrix));
    }
    if want("table4") {
        write("table4.txt", &tables::table4(HOURS, SEED));
    }
    if want("table6") {
        write("table6.txt", &tables::table6(HOURS, SEED));
    }
    if want("table7") {
        write("table7.txt", &tables::table7(HOURS, SEED));
    }
    if want("table8") {
        write("table8.txt", &tables::table8(HOURS, SEED));
    }
    // Faults is opt-in like perf: a reduced-budget fault-injection sweep
    // (CI smoke), not a paper table.
    if args.iter().any(|a| a == "faults") {
        write("faults.txt", &tables::fault_matrix(2, SEED));
    }
    // Perf is opt-in: it is a timing artifact, not a paper table.
    if args.iter().any(|a| a == "perf") {
        let campaign = bench::perf::measure_campaign(simdfs::Flavor::GlusterFs, 1, 0xbe, 3);
        let spec = bench::perf::scaling_spec(1);
        let grid = bench::perf::measure_grid_scaling(&spec, &[2, 4, 8]);
        write("BENCH_1.json", &bench::perf::bench_json(&campaign, &grid));
    }
    // Crash is opt-in: bounded crash-point exploration of the migration
    // pipeline — one campaign per flavor (bounded arm plus the
    // equal-budget random-time baseline) through the grid executor, with
    // a from-scratch byte-identity check. Writes
    // `results/BENCH_5.json`.
    if args.iter().any(|a| a == "crash") {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4);
        let bench5 =
            bench::crashbench::measure_crashbench(&themis::CrashExplorerConfig::default(), workers);
        write("BENCH_5.json", &bench::crashbench::bench5_json(&bench5));
    }
    // Scale is opt-in: large-topology scaling measurements (10 to 10k
    // storage nodes), heavy-traffic campaigns with the mean-field
    // cross-check, and a same-seed determinism check at 10k nodes.
    // Writes `results/BENCH_3.json`.
    if args.iter().any(|a| a == "scale") {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let variance = bench::scale::measure_variance_scaling(&[10, 100, 1_000, 10_000]);
        let mut campaigns = vec![
            bench::scale::run_heavy_campaign(simdfs::Flavor::Hdfs, 1_000, 0xbe, 12),
            bench::scale::run_heavy_campaign(simdfs::Flavor::CephFs, 1_000, 0xbe, 12),
        ];
        // The determinism check doubles as the flagship 10k-node campaign:
        // it runs the same campaign twice from scratch and compares the
        // canonical reports byte for byte.
        let det = bench::scale::check_campaign_determinism(simdfs::Flavor::Hdfs, 10_000, 0xbe, 12);
        campaigns.push(det.campaign.clone());
        write(
            "BENCH_3.json",
            &bench::scale::bench3_json(cores, &variance, &campaigns, &det),
        );
    }
    ExitCode::SUCCESS
}
