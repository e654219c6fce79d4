//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset of the criterion 0.5 API the workspace's benches
//! use: [`Criterion`], benchmark groups, [`BenchmarkId`], [`Throughput`],
//! and the [`criterion_group!`]/[`criterion_main!`] macros.
//! Timing is a simple best-of-N wall-clock measurement printed to stdout —
//! good enough to compare orders of magnitude without a registry dependency.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "a timing harness: it measures wall-clock time and feeds no run"
)]

use std::time::{Duration, Instant};

/// Label of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id from a parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Into-conversion so `bench_function` accepts both `&str` and `BenchmarkId`.
pub trait IntoBenchmarkId {
    /// The resulting label.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Measures one benchmark body.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, choosing the iteration count adaptively.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and calibration round.
        let start = Instant::now();
        std::hint::black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let target = Duration::from_millis(200);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.iterations = iters;
    }
}

fn report(name: &str, bencher: &Bencher) {
    let per_iter = if bencher.iterations > 0 {
        bencher.elapsed / bencher.iterations as u32
    } else {
        Duration::ZERO
    };
    println!(
        "bench: {name:<50} {:>12.3?}/iter ({} iters)",
        per_iter, bencher.iterations
    );
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the sample size (accepted for API compatibility; unused).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Annotates the group's throughput (accepted for API compatibility).
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            iterations: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        report(&format!("{}/{}", self.name, id.into_id()), &bencher);
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            iterations: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher, input);
        report(&format!("{}/{}", self.name, id.into_id()), &bencher);
        self
    }

    /// Finishes the group.
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            iterations: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        report(name, &bencher);
        self
    }

    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("add", |b| {
            b.iter(|| std::hint::black_box(1u64) + std::hint::black_box(2u64))
        });
        let mut group = c.benchmark_group("group");
        group.sample_size(10).throughput(Throughput::Bytes(8));
        group.bench_function(BenchmarkId::from_parameter(4), |b| b.iter(|| 4 * 4));
        group.bench_with_input(BenchmarkId::from_parameter("sq"), &3u64, |b, &n| {
            b.iter(|| n * n)
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
    }
}
