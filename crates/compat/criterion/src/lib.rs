//! Offline mini-criterion.
//!
//! Implements the subset of the `criterion` API this workspace's benches
//! use — `Criterion`, `benchmark_group`, `sample_size` / `warm_up_time` /
//! `measurement_time`, `bench_function(|b| b.iter(...))`, and the
//! `criterion_group!` / `criterion_main!` macros — with real wall-clock
//! measurement but none of upstream's statistics machinery: each sample is
//! timed with [`std::time::Instant`] and the mean/min/max over samples is
//! reported on stdout.
//!
//! Measurements are also recorded in a process-global table so a bench
//! target can export a machine-readable artifact afterwards (see
//! [`take_measurements`]).

use std::sync::Mutex;
use std::time::{Duration, Instant};

pub mod measurement {
    //! Measurement markers (only wall time is supported).

    /// Wall-clock time measurement marker.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct WallTime;
}

/// One completed benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/function` identifier.
    pub id: String,
    /// Samples actually taken.
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

static MEASUREMENTS: Mutex<Vec<Measurement>> = Mutex::new(Vec::new());

/// Drains every measurement recorded so far in this process.
pub fn take_measurements() -> Vec<Measurement> {
    std::mem::take(&mut *MEASUREMENTS.lock().unwrap())
}

/// Benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: u64,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(3),
        }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_, measurement::WallTime> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            _criterion: std::marker::PhantomData,
            _measurement: std::marker::PhantomData,
        }
    }
}

/// A group of benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'a, M> {
    name: String,
    sample_size: u64,
    warm_up_time: Duration,
    measurement_time: Duration,
    _criterion: std::marker::PhantomData<&'a mut Criterion>,
    _measurement: std::marker::PhantomData<M>,
}

impl<'a, M> BenchmarkGroup<'a, M> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Sets the warm-up duration before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the total measurement budget for one benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs one benchmark: warm-up, then `sample_size` timed samples.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, name);

        // Warm-up: run the routine until the warm-up budget elapses, and
        // estimate the per-iteration cost for sample sizing.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            warm_iters += bencher.iters;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;

        // Size each sample so all samples fit the measurement budget.
        let budget = self.measurement_time.as_secs_f64();
        let iters_per_sample = ((budget / self.sample_size as f64) / per_iter.max(1e-9))
            .round()
            .clamp(1.0, 1e9) as u64;

        let mut samples_s = Vec::with_capacity(self.sample_size as usize);
        for _ in 0..self.sample_size {
            bencher.iters = iters_per_sample;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            samples_s.push(bencher.elapsed.as_secs_f64() / iters_per_sample as f64);
        }
        let mean = samples_s.iter().sum::<f64>() / samples_s.len() as f64;
        let min = samples_s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples_s.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "bench {id:<44} mean {:>12} min {:>12} max {:>12} ({} samples x {} iters)",
            format_time(mean),
            format_time(min),
            format_time(max),
            self.sample_size,
            iters_per_sample,
        );
        MEASUREMENTS.lock().unwrap().push(Measurement {
            id,
            samples: self.sample_size,
            iters_per_sample,
            mean_s: mean,
            min_s: min,
            max_s: max,
        });
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(&mut self) {}
}

fn format_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Times the closure handed to [`BenchmarkGroup::bench_function`].
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `routine` for the requested number of iterations, timing the
    /// whole batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declares a benchmark group runner, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_measurement() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("t");
            g.sample_size(3)
                .warm_up_time(Duration::from_millis(1))
                .measurement_time(Duration::from_millis(5));
            let mut x = 0u64;
            g.bench_function("count", |b| {
                b.iter(|| {
                    x = x.wrapping_add(1);
                    x
                })
            });
            g.finish();
        }
        let ms = take_measurements();
        let m = ms.iter().find(|m| m.id == "t/count").expect("recorded");
        assert!(m.mean_s >= 0.0 && m.min_s <= m.mean_s && m.mean_s <= m.max_s + 1e-12);
        assert!(m.samples == 3 && m.iters_per_sample >= 1);
    }
}
