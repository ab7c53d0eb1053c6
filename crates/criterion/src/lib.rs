//! A tiny, dependency-free subset of the `criterion` benchmarking API.
//!
//! The build environment has no access to crates.io, so this local crate
//! stands in for the real `criterion`. It implements the surface this
//! workspace's benches use — `Criterion`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Bencher::iter`
//! / `iter_batched`, `BatchSize`, and the `criterion_group!` /
//! `criterion_main!` macros — with a deliberately small sample count so
//! benches double as smoke tests. Timings are printed as mean
//! nanoseconds per iteration; no statistics, plots, or baselines.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::Instant;

/// Iterations measured per benchmark. Small on purpose: the stub exists
/// so benches compile and run everywhere, not for statistical rigor.
const WARMUP_ITERS: u64 = 2;
const SAMPLE_ITERS: u64 = 10;

/// Entry point, matching `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// Run a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&name.to_string(), &mut f);
        self
    }
}

/// A named group of benchmarks, matching `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'c> {
    name: String,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Run a benchmark within this group.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, name), &mut f);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id.0), &mut |b| f(b, input));
        self
    }

    /// Finish the group (a no-op in the stub; kept for API parity).
    pub fn finish(self) {}
}

/// Identifier for a parameterized benchmark.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{function_name}/{parameter}"))
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

/// Batch sizing hint for [`Bencher::iter_batched`]; ignored by the stub.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Timer handle passed to benchmark closures.
pub struct Bencher {
    total_nanos: u128,
    iters: u64,
}

impl Bencher {
    /// Time `routine`, keeping its output alive until after the clock stops.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.total_nanos = start.elapsed().as_nanos();
    }

    /// Time `routine` over fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = 0u128;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed().as_nanos();
        }
        self.total_nanos = total;
    }
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, f: &mut F) {
    let mut warmup = Bencher {
        total_nanos: 0,
        iters: WARMUP_ITERS,
    };
    f(&mut warmup);
    let mut b = Bencher {
        total_nanos: 0,
        iters: SAMPLE_ITERS,
    };
    f(&mut b);
    let per_iter = b.total_nanos / u128::from(b.iters.max(1));
    println!("{name:<60} {per_iter:>12} ns/iter");
}

/// Bundle benchmark functions into a runnable group, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups, as in criterion.
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
    fn group_and_batched_run() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("stub");
        g.bench_function("iter", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("with_input", 4), &4u64, |b, &n| {
            b.iter_batched(|| vec![0u8; n as usize], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
        c.bench_function("toplevel", |b| b.iter(|| 2 * 2));
    }
}
