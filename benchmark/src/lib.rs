//! End-to-end benchmark of the Themis reproduction with a traced
//! per-layer breakdown.
//!
//! Three closed-loop workloads ([`WORKLOADS`]) each repeat one fixed,
//! seed-derived unit of work until the measuring time is up and report
//! a low percentile of the per-repetition rates. A timed run (`--trace 0`) counts every
//! call into each layer through the pass-through wrappers of [`trace`]
//! but reads no clock inside them; a traced run (`--trace 1`) alternates
//! timed and traced repetitions and reports the per-layer breakdown plus
//! the tracing overhead. Every repetition must reproduce the first one's
//! deterministic counters exactly.

pub mod campaigns;
pub mod crash;
pub mod scale;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Boundary, Recorder};

/// The benchmark's workloads, in `BENCHMARK.json` order. The matrix on
/// two grid workers (`matrix-2w`) is not one of them: on two shared vCPUs
/// its rates spread too widely between runs (see README.md).
pub const WORKLOADS: [&str; 3] = ["paper-matrix", "scale-heavy", "crash-explore"];

/// Spans kept from the first traced repetition (about 24 bytes each);
/// calls beyond the cap still reach the per-boundary histograms.
pub const SPAN_CAP: usize = 2_000_000;

/// Deterministic counters of one unit of work, by name.
pub type Counters = BTreeMap<String, u64>;

/// How the wrappers of one unit record.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Count calls and outcomes; read no clock.
    Off,
    /// Also time every call against `epoch`, keeping up to `span_cap`
    /// spans.
    On {
        /// Start of the traced unit.
        epoch: Instant,
        /// Spans to keep.
        span_cap: usize,
    },
}

impl Clock {
    /// Whether calls are timed.
    pub fn timing(self) -> bool {
        matches!(self, Clock::On { .. })
    }

    /// Spans to keep.
    pub fn span_cap(self) -> usize {
        match self {
            Clock::Off => 0,
            Clock::On { span_cap, .. } => span_cap,
        }
    }

    /// A fresh recorder for one cell.
    pub fn recorder(self) -> Recorder {
        match self {
            Clock::Off => Recorder::counting(),
            Clock::On { epoch, span_cap } => Recorder::timing(epoch, span_cap),
        }
    }
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Wall seconds for the whole set-up.
    pub secs: f64,
    /// Of which in cluster constructors.
    pub deploy_secs: f64,
}

/// The outcome of one unit of work.
pub struct UnitOutcome {
    /// Wall seconds of the unit.
    pub wall_s: f64,
    /// Closed-loop client iterations completed.
    pub iterations: u64,
    /// Operations attempted (sends; forks on crash-explore).
    pub attempted: u64,
    /// Attempted operations that failed: sends the target could not serve
    /// (`Down`) and replays the explorer returned as errors. Rejections
    /// of the client's deliberately invalid requests are answers, not
    /// failures.
    pub failed: u64,
    /// Sends the target accepted.
    pub accepted: u64,
    /// Rewinds of a cluster to an earlier state (crash-and-recover
    /// replays on crash-explore).
    pub forks: u64,
    /// Counters that must repeat exactly.
    pub counters: Counters,
    /// Per-layer values only the executor can see (self time, grid).
    pub layer: BTreeMap<&'static str, f64>,
    /// Everything the wrappers recorded.
    pub rec: Recorder,
    /// Failed output checks.
    pub failures: Vec<String>,
}

/// One workload: builds its clusters, then runs a fixed unit of work as
/// often as asked.
pub trait Scenario {
    /// Builds (or rebuilds) the clusters the unit runs on.
    fn setup(&mut self) -> Setup;

    /// Runs the unit once.
    fn run_unit(&mut self, clock: Clock) -> UnitOutcome;
}

/// The `k`-th input seed derived from the benchmark seed (splitmix64).
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, for digests of deterministic reports.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The wrappers' deterministic counts: calls and failures per boundary
/// and the send failure split.
pub fn recorder_counters(rec: &Recorder) -> Counters {
    let mut c = Counters::new();
    for b in Boundary::ALL {
        let s = rec.get(b);
        c.insert(format!("{}.calls", b.name()), s.calls);
        if s.failed > 0 {
            c.insert(format!("{}.failed", b.name()), s.failed);
        }
    }
    c.insert("send.rejected".into(), rec.rejected);
    c.insert("send.down".into(), rec.down);
    c
}

/// Adds a cell's simulator statistics to a counter map.
pub fn add_sim_stats(add: &mut impl FnMut(&str, u64), s: &simdfs::SimStats) {
    add("sim.ops", s.ops);
    add("sim.failed_ops", s.failed_ops);
    add("sim.rebalance_rounds", s.rebalance_rounds);
    add("sim.migrations", s.migrations);
    add("sim.bytes_migrated", s.bytes_migrated);
    add("sim.resets", s.resets);
}

/// Builds a workload by name from the benchmark seed.
pub fn scenario(name: &str, seed: u64) -> Option<Box<dyn Scenario>> {
    Some(match name {
        "paper-matrix" => Box::new(campaigns::MatrixScenario {
            spec: campaigns::matrix_spec(seed, MATRIX_SEEDS, MATRIX_HOURS, 1),
        }),
        "scale-heavy" => Box::new(scale::ScaleScenario::new(scale::ScaleConfig::for_seed(
            seed,
        ))),
        "crash-explore" => Box::new(crash::CrashScenario::new(crash::sweep(seed))),
        _ => return None,
    })
}

/// Campaign seeds per matrix cell.
pub const MATRIX_SEEDS: u64 = 8;

/// Virtual hours per matrix campaign.
pub const MATRIX_HOURS: u64 = 1;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where counters of earlier runs are kept for the exact-repeat check.
    pub state_dir: Option<PathBuf>,
    /// Where the first traced unit's spans are written.
    pub trace_out: Option<PathBuf>,
}

/// The result of one run: human-readable lines, then the JSON summary.
pub struct RunReport {
    /// Lines printed before the summary.
    pub lines: Vec<String>,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunReport {
    /// The summary line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (never expected) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The `p`-quantile (0 ≤ p ≤ 1) of a non-empty sample, interpolating
/// linearly between order statistics.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() - 1) as f64 * p;
    let lo = k.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (k - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// After each measured unit, set-ups are repeated until together they
/// have taken at least this long, so that a run times hundreds of
/// millisecond set-ups rather than a few dozen.
pub const SETUP_SAMPLE_S: f64 = 0.02;

/// Set-up time is reported as this percentile of the timed set-ups, the
/// slow side for the reason given at [`RATE_PERCENTILE`]. Set-ups of one
/// burst run back to back under the same host conditions, so the
/// percentile keeps at least a tenth of the samples beyond it rather than
/// a twentieth.
pub const SETUP_PERCENTILE: f64 = 0.9;

/// Rates are reported as this percentile of the per-unit rates: the rate
/// that 19 units in 20 sustain. On the shared 2-vCPU host described in
/// README.md, contention is the steady state and fast spells come and go,
/// so a slow-side percentile repeats across runs better than the median.
pub const RATE_PERCENTILE: f64 = 0.05;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Compares `counters` with those an earlier run of the same binary,
/// workload and seed stored under `dir`, storing them if none exist.
/// Returns the names of the counters that differ.
fn check_stored(
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    counters: &Counters,
) -> Vec<String> {
    let path = dir.join(format!("counters-{workload}-{seed}.txt"));
    let render: String = counters.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(stored) => {
            let stored: Counters = stored
                .lines()
                .filter_map(|l| {
                    let (k, v) = l.split_once(' ')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect();
            diff_counters(&stored, counters)
        }
        Err(_) => {
            // First run of this binary on this seed: store atomically.
            let tmp = dir.join(format!(
                "counters-{workload}-{seed}.{}.tmp",
                std::process::id()
            ));
            if std::fs::create_dir_all(dir).is_ok() && std::fs::write(&tmp, render).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
            Vec::new()
        }
    }
}

/// Names of counters whose values differ between `a` and `b`.
pub fn diff_counters(a: &Counters, b: &Counters) -> Vec<String> {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
        .collect()
}

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("iters_per_s", "1/s"),
    ("ok_ops_per_s", "1/s"),
    ("forks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Runs one workload for `opts.seconds` and assembles its report.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    let mut sc = scenario(&opts.workload, opts.seed)
        .ok_or_else(|| format!("unknown workload {:?}; known: {WORKLOADS:?}", opts.workload))?;
    let mut lines = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // The warm-up's clusters are built untimed. Set-up is timed after
    // every measured unit instead, under the same host conditions as the
    // units: millisecond set-ups timed in a burst at process start varied
    // twofold between runs, and the first set-ups of a process pay
    // first-touch page faults that later ones do not.
    sc.setup();
    let mut setups: Vec<Setup> = Vec::new();

    // Warm-up: fills caches and the allocator, and fixes the counters
    // every later unit must reproduce.
    let mut warm = sc.run_unit(Clock::Off);
    let reference = warm.counters.clone();
    if let Some(dir) = &opts.state_dir {
        for d in check_stored(dir, &opts.workload, opts.seed, &reference) {
            warm.failures
                .push(format!("nondeterministic across runs of this seed: {d}"));
        }
    }
    if !warm.failures.is_empty() {
        warm.failed = warm.attempted;
        failures.extend(warm.failures.iter().cloned());
    }

    let mut timed: Vec<UnitOutcome> = Vec::new();
    let mut traced: Vec<UnitOutcome> = Vec::new();
    let (min_timed, min_traced) = if opts.trace { (2, 2) } else { (3, 0) };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds
        || timed.len() < min_timed
        || traced.len() < min_traced
    {
        // Traced runs alternate, starting traced, so both kinds see the
        // same share of the host's slow spells.
        let trace_now = opts.trace && traced.len() <= timed.len();
        let clock = if trace_now {
            Clock::On {
                epoch: Instant::now(),
                span_cap: if traced.is_empty() { SPAN_CAP } else { 0 },
            }
        } else {
            Clock::Off
        };
        let mut u = sc.run_unit(clock);
        let diff = diff_counters(&reference, &u.counters);
        if !diff.is_empty() {
            u.failures.push(format!(
                "nondeterministic: unit differs from the first: {}",
                diff.join("; ")
            ));
        }
        if !u.failures.is_empty() {
            // A failed check counts every operation of its unit as failed.
            u.failed = u.attempted;
            failures.extend(u.failures.iter().cloned());
        }
        let mut spent = 0.0;
        while spent < SETUP_SAMPLE_S {
            let s = sc.setup();
            spent += s.secs;
            setups.push(s);
        }
        if trace_now {
            traced.push(u);
        } else {
            timed.push(u);
        }
    }

    let setup_s = percentile(
        &setups.iter().map(|s| s.secs).collect::<Vec<_>>(),
        SETUP_PERCENTILE,
    );
    let deploy_s = median(&setups.iter().map(|s| s.deploy_secs).collect::<Vec<_>>());
    let all = || std::iter::once(&warm).chain(&timed).chain(&traced);
    let attempted: u64 = all().map(|u| u.attempted).sum();
    let failed: u64 = all().map(|u| u.failed).sum();
    let rate = |f: &dyn Fn(&UnitOutcome) -> u64| {
        let rates: Vec<f64> = timed.iter().map(|u| f(u) as f64 / u.wall_s).collect();
        percentile(&rates, RATE_PERCENTILE)
    };
    let walls: Vec<f64> = timed.iter().map(|u| u.wall_s).collect();
    lines.push(format!(
        "workload {} seed {} trace {}: {} timed units (wall median {:.4} s, min {:.4}, max {:.4}), {} traced",
        opts.workload,
        opts.seed,
        opts.trace as u8,
        timed.len(),
        median(&walls),
        walls.iter().cloned().fold(f64::INFINITY, f64::min),
        walls.iter().cloned().fold(0.0, f64::max),
        traced.len()
    ));
    lines.push(format!(
        "unit walls: {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.push(format!(
        "per unit: iterations {} sends {} accepted {} rejected {} down {} forks {}",
        warm.iterations,
        warm.rec.sends(),
        warm.accepted,
        warm.rec.rejected,
        warm.rec.down,
        warm.forks
    ));
    let rejected: u64 = all().map(|u| u.rec.rejected).sum();
    lines.push(format!(
        "operations: attempted {attempted} failed {failed} rejected by design {rejected} \
         (every unit of this run); set-ups timed {}",
        setups.len()
    ));
    for f in &failures {
        lines.push(format!("CHECK FAILED: {f}"));
    }
    if failures.is_empty() {
        lines.push(format!(
            "checks: passed ({} units reproduced the reference counters)",
            timed.len() + traced.len()
        ));
    }

    let metrics = if opts.trace {
        let overhead =
            median(&traced.iter().map(|u| u.wall_s).collect::<Vec<_>>()) / median(&walls) - 1.0;
        if let (Some(path), Some(first)) = (&opts.trace_out, traced.first()) {
            let file = path.join(format!("{}.spans.tsv", opts.workload));
            if let Err(e) = first.rec.write_spans(&file) {
                lines.push(format!("could not write spans to {}: {e}", file.display()));
            } else {
                lines.push(format!(
                    "spans: {} written to {} ({} beyond the cap)",
                    first.rec.spans.len(),
                    file.display(),
                    first.rec.spans_dropped
                ));
            }
        }
        per_layer(&traced, &reference, overhead, deploy_s)
    } else {
        let values = [
            rate(&|u| u.iterations),
            rate(&|u| u.accepted),
            rate(&|u| u.forks),
            setup_s,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, *u))
            .collect()
    };
    for (n, v, u) in &metrics {
        lines.push(format!("{n} {} {u}", num(*v)));
    }
    Ok(RunReport {
        lines,
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Per-layer metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("gen.next_case.calls", "count"),
    ("gen.next_case.busy_s", "s"),
    ("gen.feedback.busy_s", "s"),
    ("campaign.self_s", "s"),
    ("campaign.iterations", "count"),
    ("campaign.ops_sent", "count"),
    ("detector.candidates", "count"),
    ("detector.filtered", "count"),
    ("campaign.confirmed", "count"),
    ("campaign.resets", "count"),
    ("campaign.coverage", "count"),
    ("campaign.bugs_found", "count"),
    ("send.data.calls", "count"),
    ("send.data.busy_s", "s"),
    ("send.data.failed", "count"),
    ("send.data.p50_us", "us"),
    ("send.data.p99_us", "us"),
    ("send.ns.calls", "count"),
    ("send.ns.busy_s", "s"),
    ("send.ns.failed", "count"),
    ("send.ns.p50_us", "us"),
    ("send.ns.p99_us", "us"),
    ("send.config.calls", "count"),
    ("send.config.busy_s", "s"),
    ("send.config.failed", "count"),
    ("send.config.p50_us", "us"),
    ("send.config.p99_us", "us"),
    ("send.ok_ratio", "ratio"),
    ("send.rejected", "count"),
    ("send.down", "count"),
    ("load_report.busy_s", "s"),
    ("query.topology.busy_s", "s"),
    ("query.inventory.busy_s", "s"),
    ("query.other.busy_s", "s"),
    ("balancer.rebalance.calls", "count"),
    ("balancer.rebalance.busy_s", "s"),
    ("balancer.done.busy_s", "s"),
    ("balancer.wait.calls", "count"),
    ("balancer.wait.busy_s", "s"),
    ("sim.rebalance_rounds", "count"),
    ("sim.migrations", "count"),
    ("sim.bytes_migrated", "B"),
    ("snapshot.restore.calls", "count"),
    ("snapshot.restore.busy_s", "s"),
    ("snapshot.restore.p50_us", "us"),
    ("snapshot.restore.p99_us", "us"),
    ("snapshot.mark.busy_s", "s"),
    ("reset.calls", "count"),
    ("reset.busy_s", "s"),
    ("crash.control.busy_s", "s"),
    ("crash.recover.busy_s", "s"),
    ("crash.oracle.calls", "count"),
    ("crash.oracle.busy_s", "s"),
    ("crash.bounded.useful_ratio", "ratio"),
    ("crash.baseline.fired_ratio", "ratio"),
    ("workload.next_block.busy_s", "s"),
    ("setup.deploy_s", "s"),
    ("base.restore.busy_s", "s"),
    ("grid.deploy_s", "s"),
    ("grid.busy_s.w0", "s"),
    ("grid.idle_s", "s"),
    ("grid.redeploys", "count"),
    ("trace.unit_wall_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Assembles the per-layer metrics of a traced run: busy times are means
/// per unit over the traced units, counts are the (identical) per-unit
/// counters, percentiles come from the merged histograms.
fn per_layer(
    traced: &[UnitOutcome],
    counters: &Counters,
    overhead: f64,
    deploy_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let n = traced.len() as f64;
    let mut merged = Recorder::counting();
    for u in traced {
        merged.merge(&u.rec, 0);
    }
    let busy = |b: Boundary| merged.get(b).busy_ns as f64 / 1e9 / n;
    let count = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let q_us = |b: Boundary, q: f64| {
        merged
            .get(b)
            .hist
            .as_ref()
            .map_or(0.0, |h| h.quantile_ns(q) / 1e3)
    };
    let layer = |k: &str| {
        traced
            .iter()
            .map(|u| u.layer.get(k).copied().unwrap_or(0.0))
            .sum::<f64>()
            / n
    };
    let sends = count("send.data.calls") + count("send.ns.calls") + count("send.config.calls");
    let ok_ratio = if sends > 0.0 {
        (sends - count("send.rejected") - count("send.down")) / sends
    } else {
        0.0
    };
    let ratio = |a: &str, b: &str| {
        if count(b) > 0.0 {
            count(a) / count(b)
        } else {
            0.0
        }
    };
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = match *name {
                "gen.next_case.busy_s" => busy(Boundary::GenNextCase),
                "gen.feedback.busy_s" => busy(Boundary::GenFeedback),
                "send.data.busy_s" => busy(Boundary::SendData),
                "send.ns.busy_s" => busy(Boundary::SendNs),
                "send.config.busy_s" => busy(Boundary::SendConfig),
                "send.data.p50_us" => q_us(Boundary::SendData, 0.5),
                "send.data.p99_us" => q_us(Boundary::SendData, 0.99),
                "send.ns.p50_us" => q_us(Boundary::SendNs, 0.5),
                "send.ns.p99_us" => q_us(Boundary::SendNs, 0.99),
                "send.config.p50_us" => q_us(Boundary::SendConfig, 0.5),
                "send.config.p99_us" => q_us(Boundary::SendConfig, 0.99),
                "send.ok_ratio" => ok_ratio,
                "load_report.busy_s" => busy(Boundary::LoadReport),
                "query.topology.busy_s" => busy(Boundary::QueryTopology),
                "query.inventory.busy_s" => busy(Boundary::QueryInventory),
                "query.other.busy_s" => busy(Boundary::QueryOther),
                "balancer.rebalance.busy_s" => busy(Boundary::Rebalance),
                "balancer.done.busy_s" => busy(Boundary::RebalanceDone),
                "balancer.wait.busy_s" => busy(Boundary::Wait),
                "balancer.rebalance.calls" => count("balancer.rebalance.calls"),
                "balancer.wait.calls" => count("balancer.wait.calls"),
                "snapshot.restore.busy_s" => busy(Boundary::SnapRestore),
                "snapshot.restore.p50_us" => q_us(Boundary::SnapRestore, 0.5),
                "snapshot.restore.p99_us" => q_us(Boundary::SnapRestore, 0.99),
                "snapshot.mark.busy_s" => busy(Boundary::SnapMark),
                "reset.busy_s" => busy(Boundary::Reset),
                "crash.control.busy_s" => busy(Boundary::CrashControl),
                "crash.recover.busy_s" => busy(Boundary::CrashRecover),
                "crash.oracle.busy_s" => busy(Boundary::CrashOracle),
                "crash.bounded.useful_ratio" => {
                    ratio("crash.bounded.explored", "crash.bounded.forks")
                }
                "crash.baseline.fired_ratio" => {
                    ratio("crash.baseline.explored", "crash.baseline.forks")
                }
                "workload.next_block.busy_s" => busy(Boundary::NextBlock),
                "setup.deploy_s" => deploy_s,
                "trace.unit_wall_s" => traced.iter().map(|u| u.wall_s).sum::<f64>() / n,
                "trace.overhead" => overhead,
                "campaign.self_s"
                | "base.restore.busy_s"
                | "grid.deploy_s"
                | "grid.busy_s.w0"
                | "grid.idle_s"
                | "grid.redeploys" => layer(name),
                other => count(other),
            };
            (name.to_string(), v, *unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 0.1) - 1.3).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
