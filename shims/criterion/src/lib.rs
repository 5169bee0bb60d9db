//! Offline, in-tree stand-in for `criterion`: compiles the workspace's
//! bench targets unchanged and runs each benchmark a handful of timed
//! iterations, printing mean wall time (and throughput when declared).
//! No statistics, plots, or CLI — the workspace's perf trajectory is
//! tracked by the `exp_*` experiment binaries instead; this keeps
//! `cargo bench` functional offline.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How many timed iterations the shim runs per benchmark.
const MEASURE_ITERS: u32 = 5;

/// Top-level harness handle.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Builder: nominal sample size (accepted for API compatibility; the
    /// shim always runs a fixed small iteration count).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&name.into(), None, &mut f);
        self
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Nominal sample size (API compatibility only).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Declares the per-iteration throughput unit.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, name.into());
        run_one(&label, self.throughput, &mut f);
        self
    }

    /// Runs a parameterized benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_one(&label, self.throughput, &mut |b| f(b, input));
        self
    }

    /// Ends the group (no-op in the shim).
    pub fn finish(self) {}
}

/// A benchmark identifier: `function_name/parameter`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a displayed parameter.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }
}

/// Per-iteration throughput declaration.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Logical elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batch size hint for [`Bencher::iter_batched`] (ignored by the shim).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// Per-iteration state comparable to the routine's working set.
    PerIteration,
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    total: Duration,
    iters: u32,
}

impl Bencher {
    /// Times `routine` over the shim's fixed iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..MEASURE_ITERS {
            let started = Instant::now();
            black_box(routine());
            self.total += started.elapsed();
            self.iters += 1;
        }
    }

    /// Times `routine` over fresh per-iteration state from `setup`;
    /// setup time is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..MEASURE_ITERS {
            let input = setup();
            let started = Instant::now();
            black_box(routine(input));
            self.total += started.elapsed();
            self.iters += 1;
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, throughput: Option<Throughput>, f: &mut F) {
    let mut bencher = Bencher {
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut bencher);
    let mean = if bencher.iters == 0 {
        Duration::ZERO
    } else {
        bencher.total / bencher.iters
    };
    let extra = match throughput {
        Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
            format!("  ({:.0} elem/s)", n as f64 / mean.as_secs_f64())
        }
        Some(Throughput::Bytes(n)) if mean > Duration::ZERO => {
            format!("  ({:.0} B/s)", n as f64 / mean.as_secs_f64())
        }
        _ => String::new(),
    };
    println!("bench {label:<56} {mean:>12.3?}/iter{extra}");
}

/// Declares a benchmark group function, mirroring criterion's macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench-target `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench`/`cargo test` pass harness flags; a `--test`
            // invocation only needs to exercise compilation + smoke runs,
            // which the shim's fixed small iteration count already is.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_and_benchers_run() {
        let mut c = Criterion::default().sample_size(10);
        let mut ran = 0;
        c.bench_function("standalone", |b| b.iter(|| black_box(1 + 1)));
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(5).throughput(Throughput::Elements(3));
            g.bench_function("inner", |b| {
                b.iter(|| {
                    ran += 1;
                    black_box(ran)
                })
            });
            g.bench_with_input(BenchmarkId::new("with_input", 7), &7, |b, &x| {
                b.iter_batched(|| x * 2, |v| black_box(v + 1), BatchSize::SmallInput)
            });
            g.finish();
        }
        assert!(ran > 0);
    }
}
