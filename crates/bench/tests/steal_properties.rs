//! Property tests of the grid executor's contract: whatever order the
//! workers claim tasks in — varied by random, wildly uneven task costs
//! and random worker counts — every task runs exactly once, its result
//! lands at its task id, and the per-worker counters add up.

use bench::grid::{steal_execute, WorkerStats};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Burns deterministic CPU proportional to `cost` and returns a value
/// derived from it (so the work cannot be optimized away).
fn spin(cost: u64) -> u64 {
    let mut acc = cost;
    for k in 0..cost * 20_000 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
    }
    acc
}

fn checked_run(costs: &[u64], workers: usize) -> (Vec<u64>, Vec<WorkerStats>) {
    let n = costs.len();
    let executions: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let executions = &executions;
    let (results, stats) = steal_execute(n, workers, |_w| {
        move |i: usize| {
            executions[i].fetch_add(1, Ordering::Relaxed);
            // The "result" folds the task id with work derived from its
            // cost; any double execution, lost task, or id/result mixup
            // changes the output.
            (i as u64) ^ spin(costs[i]).wrapping_shl(8)
        }
    });
    for (i, e) in executions.iter().enumerate() {
        assert_eq!(e.load(Ordering::Relaxed), 1, "task {i} execution count");
    }
    (results, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Claim-order perturbation never changes results: a serial run and
    /// parallel runs at a random worker count over tasks with random
    /// heavily-skewed costs produce identical outputs, and the counters
    /// account for every cell exactly once.
    #[test]
    fn perturbed_schedules_never_change_results(
        seed in any::<u64>(),
        workers in 2usize..=8,
        n in 1usize..=48,
    ) {
        // Skewed cost pattern: most tasks are free, a few are ~100x
        // heavier, placed by the seed, so the workers fall out of step
        // and claim tasks in varied orders.
        let costs: Vec<u64> = (0..n)
            .map(|i| {
                let h = seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15);
                if h % 5 == 0 { 50 + h % 100 } else { h % 3 }
            })
            .collect();
        let (serial, serial_stats) = checked_run(&costs, 1);
        prop_assert_eq!(serial_stats.len(), 1);
        let (parallel, stats) = checked_run(&costs, workers);
        prop_assert_eq!(&parallel, &serial, "workers={} diverged", workers);
        prop_assert_eq!(stats.len(), workers);
        let run: u64 = stats.iter().map(|s| s.cells_run).sum();
        prop_assert_eq!(run, n as u64);
    }
}

#[test]
fn stats_len_matches_worker_count_even_with_excess_workers() {
    // More workers than tasks: everyone spins up, most find nothing.
    let (results, stats) = steal_execute(2, 6, |_w| |i: usize| i * 10);
    assert_eq!(results, vec![0, 10]);
    assert_eq!(stats.len(), 6);
    assert_eq!(stats.iter().map(|s| s.cells_run).sum::<u64>(), 2);
}
