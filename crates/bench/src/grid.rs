//! Parallel campaign grid executor.
//!
//! Evaluation workloads are embarrassingly parallel across campaign cells:
//! every `(flavor, strategy, seed, fault_profile)` combination is an
//! independent, deterministic computation. [`run_grid`] executes such a
//! matrix on a pool of scoped threads and returns the results keyed by
//! grid index. Each cell is a pure function of its coordinates, so the
//! output is bit-identical at any worker count. The pool rests on three
//! facts:
//!
//! 1. **A shared counter.** Workers claim the next cell index from one
//!    atomic counter until it passes the last cell, so every cell runs
//!    exactly once and no worker idles while cells remain.
//! 2. **Per-worker simulator reuse.** Each worker owns one
//!    [`CellRunner`] per flavor it touches: a single deploy, base-marked,
//!    then rewound between cells via `restore_to_base` (a journal rewind
//!    to mark 0) instead of re-ingesting the whole topology per cell. A
//!    grid deploys at most `workers × flavors` simulators, which
//!    [`WorkerStats::redeploys`] counts.
//! 3. **A merge by index.** Workers append finished cells to shards they
//!    own, and the shards are merged by grid index once, at join, so the
//!    claim order never shows in the output.

use crate::harness::{run_eval_cell, CellRunner, EvalResult};
use simdfs::{BugSet, Flavor};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use themis::VarianceWeights;

/// A campaign matrix: the cross product of flavors, strategies and seeds,
/// all sharing one budget/detector configuration.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Target flavors (outermost grid axis).
    pub flavors: Vec<Flavor>,
    /// Strategy names (middle axis), resolved via [`themis::by_name`].
    pub strategies: Vec<String>,
    /// RNG seeds (third axis).
    pub seeds: Vec<u64>,
    /// Fault profile names (innermost axis), resolved via
    /// [`simdfs::FaultPlan::named`]. Defaults to `["none"]`, which leaves
    /// the pre-existing three-axis matrix unchanged.
    pub fault_profiles: Vec<String>,
    /// Bug set every cell's simulator is built with.
    pub bugs: BugSet,
    /// Virtual time budget per campaign, in hours.
    pub hours: u64,
    /// Detector threshold `t`.
    pub threshold_t: f64,
    /// Load-variance weighting factors.
    pub weights: VarianceWeights,
    /// Worker threads. 0 means one per available core.
    pub workers: usize,
}

impl GridSpec {
    /// A grid over the given axes with the defaults the evaluation tables
    /// use (threshold 0.25, default weights, one worker per core).
    pub fn new(
        flavors: Vec<Flavor>,
        strategies: Vec<String>,
        seeds: Vec<u64>,
        bugs: BugSet,
        hours: u64,
    ) -> Self {
        GridSpec {
            flavors,
            strategies,
            seeds,
            fault_profiles: vec!["none".to_string()],
            bugs,
            hours,
            threshold_t: 0.25,
            weights: VarianceWeights::default(),
            workers: 0,
        }
    }

    /// Number of cells in the matrix.
    pub fn cells(&self) -> usize {
        self.flavors.len() * self.strategies.len() * self.seeds.len() * self.fault_profiles.len()
    }

    /// The `(flavor, strategy, seed, fault_profile)` coordinates of cell
    /// `index` (row-major: flavor outermost, fault profile innermost).
    pub fn coords(&self, index: usize) -> (Flavor, &str, u64, &str) {
        let per_seed = self.fault_profiles.len();
        let per_strategy = self.seeds.len() * per_seed;
        let per_flavor = self.strategies.len() * per_strategy;
        let f = index / per_flavor;
        let s = (index % per_flavor) / per_strategy;
        let sd = (index % per_strategy) / per_seed;
        let fp = index % per_seed;
        (
            self.flavors[f],
            &self.strategies[s],
            self.seeds[sd],
            &self.fault_profiles[fp],
        )
    }

    /// Position of cell `index`'s flavor within `self.flavors` (the
    /// worker-local [`CellRunner`] pool is indexed by this).
    fn flavor_slot(&self, index: usize) -> usize {
        let per_flavor = self.strategies.len() * self.seeds.len() * self.fault_profiles.len();
        index / per_flavor
    }

    fn resolved_workers(&self) -> usize {
        let w = if self.workers == 0 {
            match DEFAULT_WORKERS.load(Ordering::Relaxed) {
                0 => std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
                n => n,
            }
        } else {
            self.workers
        };
        w.clamp(1, self.cells().max(1))
    }
}

/// Process-wide override applied when a spec leaves `workers` at 0 (its
/// "one per core" default). 0 means no override. Set from the `repro`
/// CLI's `--workers N` flag so scaling runs are reproducible without
/// editing code.
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the default worker count for every subsequent grid run whose
/// spec does not set one explicitly. Pass 0 to restore one-per-core.
pub fn set_default_workers(n: usize) {
    DEFAULT_WORKERS.store(n, Ordering::Relaxed);
}

/// One completed cell of the grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Position in the matrix (see [`GridSpec::coords`]).
    pub index: usize,
    /// Target flavor.
    pub flavor: Flavor,
    /// Strategy name.
    pub strategy: String,
    /// Campaign seed.
    pub seed: u64,
    /// Fault profile injected into this cell's simulator.
    pub fault_profile: String,
    /// The attributed campaign outcome.
    pub eval: EvalResult,
}

/// Per-worker execution counters. Which worker claims which cell depends
/// on thread timing, so these say how much work each worker did and how
/// long it was busy, not which cells it ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Cells this worker executed.
    pub cells_run: u64,
    /// Wall-clock nanoseconds spent executing cells.
    pub busy_ns: u64,
    /// Full simulator deploys this worker performed — at most one per
    /// flavor it touched, thanks to [`CellRunner`] reuse.
    pub redeploys: u64,
}

/// The outcome of a grid run.
#[derive(Debug)]
pub struct GridOutcome {
    /// Every cell, ordered by grid index — the ordering is a function of
    /// the spec alone, never of worker count or scheduling.
    pub cells: Vec<GridCell>,
    /// Per-worker counters; `cells_run` sums to `cells.len()`.
    pub worker_stats: Vec<WorkerStats>,
}

impl GridOutcome {
    /// Total full simulator deploys across the pool. With per-worker
    /// reuse this is bounded by `workers × flavors` no matter how many
    /// cells ran.
    pub fn redeploys(&self) -> u64 {
        self.worker_stats.iter().map(|s| s.redeploys).sum()
    }
}

/// Runs one cell from a fresh deploy — the serial reference path the
/// determinism tests compare the reusing executor against.
pub fn run_cell(spec: &GridSpec, index: usize) -> GridCell {
    let (flavor, strategy, seed, fault_profile) = spec.coords(index);
    let eval = run_eval_cell(
        flavor,
        strategy,
        spec.bugs.clone(),
        spec.hours,
        seed,
        spec.threshold_t,
        spec.weights,
        fault_profile,
    );
    GridCell {
        index,
        flavor,
        strategy: strategy.to_string(),
        seed,
        fault_profile: fault_profile.to_string(),
        eval,
    }
}

/// Context captured when a worker's task panics: which worker was
/// running which task, and the panic payload rendered to a string.
#[derive(Debug, Clone)]
struct TaskPanic {
    worker: usize,
    task: usize,
    message: String,
}

/// Renders a caught panic payload (the common `&str`/`String` cases;
/// anything else is labelled as opaque rather than dropped).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Generic parallel executor: runs tasks `0..n` across `workers` scoped
/// threads and returns every task's result (indexed by task id) plus
/// per-worker counters. `bench::run_grid` runs on it, and so does the
/// repo benchmark's `paper-matrix` workload: `benchmark/src/campaigns.rs`
/// calls `bench::steal_execute`, which is why the function keeps the
/// name it had when idle workers stole queued tasks from each other.
///
/// Each worker claims the next task id from one shared counter until the
/// ids run out, so a slow task holds up only the worker running it.
///
/// `make_worker` runs once *inside* each spawned thread and builds that
/// worker's task closure — worker state (simulator pools here) never
/// crosses a thread boundary, so it does not need to be `Send`. The task
/// closure must be a pure function of the task id; the executor asserts
/// every id is executed exactly once.
///
/// If a task panics, the executor aborts the grid cleanly: the unwind is
/// caught, sibling workers stop claiming tasks, every completed shard is
/// still merged, and the re-raised panic names the worker, the in-flight
/// cell index, the original payload, and how many cells had completed.
pub fn steal_execute<T, M, F>(
    n: usize,
    workers: usize,
    make_worker: M,
) -> (Vec<T>, Vec<WorkerStats>)
where
    T: Send,
    M: Fn(usize) -> F + Sync,
    F: FnMut(usize) -> T,
{
    assert!(workers >= 1, "steal_execute needs at least one worker");
    // The counter only hands out ids; results travel through the shards
    // the join returns, so the claim needs no ordering beyond atomicity.
    let next = &AtomicUsize::new(0);
    let make_worker = &make_worker;
    // A panicking task must not take its context down with it: the worker
    // catches the unwind, records (worker, task, payload) here, and raises
    // the abort flag so sibling workers stop claiming tasks.
    let aborted = &AtomicBool::new(false);
    let panics = &std::sync::Mutex::new(Vec::<TaskPanic>::new());

    let shards: Vec<(Vec<(usize, T)>, WorkerStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut run = make_worker(w);
                    let mut stats = WorkerStats::default();
                    let mut shard: Vec<(usize, T)> = Vec::with_capacity(n / workers + 1);
                    while !aborted.load(Ordering::Acquire) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = std::time::Instant::now();
                        let result =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(i)));
                        stats.busy_ns += t0.elapsed().as_nanos() as u64;
                        match result {
                            Ok(t) => {
                                stats.cells_run += 1;
                                shard.push((i, t));
                            }
                            Err(payload) => {
                                panics.lock().expect("panic log poisoned").push(TaskPanic {
                                    worker: w,
                                    task: i,
                                    message: payload_message(&*payload),
                                });
                                aborted.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                    (shard, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| {
                h.join()
                    .unwrap_or_else(|_| panic!("grid worker {w} panicked outside task execution"))
            })
            .collect()
    });

    let mut stats = Vec::with_capacity(workers);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (shard, st) in shards {
        stats.push(st);
        for (i, t) in shard {
            assert!(slots[i].is_none(), "task {i} executed more than once");
            slots[i] = Some(t);
        }
    }
    // Every surviving shard is merged above before a task panic is
    // re-raised, so the failure message can report exactly how much of the
    // grid completed (and with which context the rest was lost).
    let panics = panics.lock().expect("panic log poisoned");
    if let Some(p) = panics.first() {
        let completed = slots.iter().filter(|s| s.is_some()).count();
        panic!(
            "grid worker {} panicked while running cell {}: {}; \
             {completed}/{n} cells completed before the grid aborted",
            p.worker, p.task, p.message
        );
    }
    let results: Vec<T> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("task {i} never executed")))
        .collect();
    (results, stats)
}

/// Executes the full matrix on the worker pool (see the module docs for
/// the architecture). Every worker lazily builds one [`CellRunner`] per
/// flavor on first contact and reuses it — via base-mark restore — for
/// every later cell of that flavor, so the executor's deploy count is `Σ`
/// (flavors each worker touched), not the cell count. Results are
/// bit-identical to [`run_cell`]'s fresh-deploy reference at every worker
/// count and claim order.
pub fn run_grid(spec: &GridSpec) -> GridOutcome {
    let n = spec.cells();
    if n == 0 {
        return GridOutcome {
            cells: Vec::new(),
            worker_stats: Vec::new(),
        };
    }
    let workers = spec.resolved_workers();
    // Redeploys are counted through shared slots (not WorkerStats directly)
    // because the runner pool lives inside the worker closure, which
    // steal_execute owns until join.
    let redeploy_counts: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let redeploy_counts = &redeploy_counts;
    let (cells, mut stats) = steal_execute(n, workers, |w| {
        let mut pool: Vec<Option<CellRunner>> = spec.flavors.iter().map(|_| None).collect();
        move |i| {
            let (flavor, strategy, seed, fault_profile) = spec.coords(i);
            let runner = pool[spec.flavor_slot(i)].get_or_insert_with(|| {
                redeploy_counts[w].fetch_add(1, Ordering::Relaxed);
                CellRunner::new(flavor, spec.bugs.clone())
            });
            let eval = runner.run(
                strategy,
                spec.hours,
                seed,
                spec.threshold_t,
                spec.weights,
                fault_profile,
            );
            GridCell {
                index: i,
                flavor,
                strategy: strategy.to_string(),
                seed,
                fault_profile: fault_profile.to_string(),
                eval,
            }
        }
    });
    for (w, st) in stats.iter_mut().enumerate() {
        st.redeploys = redeploy_counts[w].load(Ordering::Relaxed);
    }
    GridOutcome {
        cells,
        worker_stats: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(workers: usize) -> GridSpec {
        GridSpec {
            workers,
            ..GridSpec::new(
                vec![Flavor::GlusterFs, Flavor::Hdfs],
                vec!["Themis-".into()],
                vec![3, 11],
                BugSet::None,
                1,
            )
        }
    }

    #[test]
    fn coords_cover_the_matrix_row_major() {
        let spec = tiny_spec(1);
        assert_eq!(spec.cells(), 4);
        assert_eq!(spec.coords(0), (Flavor::GlusterFs, "Themis-", 3, "none"));
        assert_eq!(spec.coords(1), (Flavor::GlusterFs, "Themis-", 11, "none"));
        assert_eq!(spec.coords(2), (Flavor::Hdfs, "Themis-", 3, "none"));
        assert_eq!(spec.coords(3), (Flavor::Hdfs, "Themis-", 11, "none"));
        assert_eq!(spec.flavor_slot(0), 0);
        assert_eq!(spec.flavor_slot(1), 0);
        assert_eq!(spec.flavor_slot(2), 1);
        assert_eq!(spec.flavor_slot(3), 1);
    }

    #[test]
    fn fault_axis_is_innermost() {
        let spec = GridSpec {
            fault_profiles: vec!["none".into(), "crash".into()],
            ..tiny_spec(1)
        };
        assert_eq!(spec.cells(), 8);
        assert_eq!(spec.coords(0), (Flavor::GlusterFs, "Themis-", 3, "none"));
        assert_eq!(spec.coords(1), (Flavor::GlusterFs, "Themis-", 3, "crash"));
        assert_eq!(spec.coords(2), (Flavor::GlusterFs, "Themis-", 11, "none"));
        assert_eq!(spec.coords(3), (Flavor::GlusterFs, "Themis-", 11, "crash"));
        assert_eq!(spec.coords(7), (Flavor::Hdfs, "Themis-", 11, "crash"));
    }

    #[test]
    fn grid_completes_every_cell_in_index_order() {
        let spec = tiny_spec(2);
        let out = run_grid(&spec);
        assert_eq!(out.cells.len(), 4);
        for (i, cell) in out.cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            let (f, s, sd, fp) = spec.coords(i);
            assert_eq!(
                (
                    cell.flavor,
                    cell.strategy.as_str(),
                    cell.seed,
                    cell.fault_profile.as_str()
                ),
                (f, s, sd, fp)
            );
            assert!(cell.eval.campaign.iterations > 0);
        }
        assert_eq!(out.worker_stats.len(), 2);
        assert_eq!(out.worker_stats.iter().map(|s| s.cells_run).sum::<u64>(), 4);
    }

    #[test]
    fn worker_count_is_clamped_to_cells() {
        let spec = tiny_spec(64);
        let out = run_grid(&spec);
        assert_eq!(out.worker_stats.len(), 4);
    }

    #[test]
    fn single_worker_runs_everything_itself() {
        let spec = tiny_spec(1);
        let out = run_grid(&spec);
        assert_eq!(out.cells.len(), 4);
        assert_eq!(out.worker_stats.len(), 1);
        let st = out.worker_stats[0];
        assert_eq!(st.cells_run, 4);
        assert!(st.busy_ns > 0);
    }

    #[test]
    fn reuse_pins_redeploys_to_workers_times_flavors() {
        // 2 flavors × 8 seeds = 16 cells on 2 workers: without reuse this
        // would deploy 16 simulators; with it, at most 2 × 2.
        let spec = GridSpec {
            workers: 2,
            ..GridSpec::new(
                vec![Flavor::GlusterFs, Flavor::Hdfs],
                vec!["Themis-".into()],
                (0..8u64).collect(),
                BugSet::None,
                1,
            )
        };
        let out = run_grid(&spec);
        assert_eq!(out.cells.len(), 16);
        let redeploys = out.redeploys();
        assert!(
            (1..=4).contains(&redeploys),
            "2 workers × 2 flavors caps deploys at 4, got {redeploys}"
        );
    }

    #[test]
    fn worker_panic_surfaces_context_and_completed_count() {
        let caught = std::panic::catch_unwind(|| {
            steal_execute(8, 2, |_w| {
                move |i: usize| {
                    if i == 5 {
                        panic!("cell exploded deterministically");
                    }
                    i
                }
            })
        });
        let payload = caught.expect_err("the grid must propagate the task panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the grid panic carries a rich message");
        assert!(msg.contains("grid worker"), "names the worker: {msg}");
        assert!(msg.contains("cell 5"), "names the in-flight cell: {msg}");
        assert!(
            msg.contains("cell exploded deterministically"),
            "carries the original payload: {msg}"
        );
        assert!(
            msg.contains("cells completed"),
            "reports the merged shards: {msg}"
        );
    }
}
