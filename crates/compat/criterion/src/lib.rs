//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API surface the workspace's benches use — groups,
//! `bench_function` / `bench_with_input`, `BenchmarkId`, `Throughput`,
//! `sample_size`, and the `criterion_group!`/`criterion_main!` macros —
//! with a simple wall-clock measurement loop instead of criterion's
//! statistical machinery: per benchmark it warms up once, then times
//! `sample_size` batches and reports min/mean per-iteration latency to
//! stdout in a stable, greppable format.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group: a function name plus an
/// optional parameter rendered into the label.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Identifier from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { label: s }
    }
}

/// Throughput annotation; accepted and echoed, not used in statistics.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Bytes, decimal multiple variant (compat).
    BytesDecimal(u64),
}

/// The benchmark context handed to each registered function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }

    /// Benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_one("", &id.into().label, 10, None, f);
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set how many timed batches each benchmark runs (min 2).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotate the group's throughput basis.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmark a closure under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&self.name, &id.into().label, self.sample_size, self.throughput, f);
        self
    }

    /// Benchmark a closure that receives a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&self.name, &id.into().label, self.sample_size, self.throughput, |b| {
            f(b, input)
        });
        self
    }

    /// Finish the group (prints nothing extra; exists for API parity).
    pub fn finish(self) {}
}

/// Measures the closure under test; handed to benchmark functions.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine`, called `self.iters` times back-to-back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one<F>(group: &str, label: &str, samples: usize, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let full = if group.is_empty() {
        label.to_string()
    } else {
        format!("{group}/{label}")
    };
    // Calibrate: one iteration to estimate cost, then pick a batch size
    // aiming at ~10ms per sample (capped so slow benches stay fast).
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let once = b.elapsed.max(Duration::from_nanos(50));
    let per_sample = Duration::from_millis(10);
    let iters = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;

    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = b.elapsed / (iters as u32);
        best = best.min(per_iter);
        total += per_iter;
    }
    let mean = total / (samples as u32);
    let thr = match throughput {
        Some(Throughput::Elements(n)) => {
            let secs = mean.as_secs_f64().max(1e-12);
            format!("  thrpt: {:.0} elem/s", n as f64 / secs)
        }
        Some(Throughput::Bytes(n)) | Some(Throughput::BytesDecimal(n)) => {
            let secs = mean.as_secs_f64().max(1e-12);
            format!("  thrpt: {:.0} B/s", n as f64 / secs)
        }
        None => String::new(),
    };
    println!(
        "bench: {full:<48} time: [min {} mean {}]  ({samples} samples x {iters} iters){thr}",
        fmt_duration(best),
        fmt_duration(mean),
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Register benchmark functions under a group name, mirroring criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let _ = $cfg;
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` running the named groups.
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

    #[test]
    fn bench_smoke() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("compat");
        g.sample_size(2);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }
}
