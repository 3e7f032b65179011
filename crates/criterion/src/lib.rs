//! Offline stand-in for the crates.io `criterion` benchmark harness.
//!
//! The build environment has no network access, so this crate provides the
//! subset of criterion's API that the `wcdma-bench` benches use — the
//! [`criterion_group!`] / [`criterion_main!`] macros, [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], and [`Bencher`] — backed by a plain
//! wall-clock measurement loop instead of criterion's statistical machinery.
//!
//! Measurements: each `Bencher::iter` call runs a short warm-up, then
//! `sample_size` timed samples, and prints min / mean / max per-iteration
//! times. This keeps `cargo bench` useful for coarse regression tracking
//! while remaining dependency-free. Swapping back to real criterion later is
//! a one-line change in the workspace manifest.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

pub use hint::black_box;

/// Number of warm-up iterations before timed samples are collected.
const WARMUP_ITERS: u64 = 3;

/// The benchmark driver: configuration plus the entry points the
/// `criterion_group!` macro and the benches call.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(5),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples collected per benchmark (builder
    /// style, matching criterion's configuration API).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Sets a soft cap on total measurement time per benchmark.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, self.sample_size, self.measurement_time, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, group_name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: group_name.to_string(),
            sample_size: None,
            measurement_time: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and (optionally) a
/// sample-size override.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = Some(n);
        self
    }

    /// Overrides the soft cap on total measurement time for benchmarks in
    /// this group (scoped to the group, like in real criterion).
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = Some(t);
        self
    }

    fn effective_sample_size(&self) -> usize {
        self.sample_size.unwrap_or(self.criterion.sample_size)
    }

    fn effective_measurement_time(&self) -> Duration {
        self.measurement_time
            .unwrap_or(self.criterion.measurement_time)
    }

    /// Runs a benchmark inside this group.
    pub fn bench_function<S, F>(&mut self, id: S, mut f: F) -> &mut Self
    where
        S: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id);
        run_one(
            &full,
            self.effective_sample_size(),
            self.effective_measurement_time(),
            &mut f,
        );
        self
    }

    /// Runs a benchmark parameterised by `input`.
    pub fn bench_with_input<S, I, F>(&mut self, id: S, input: &I, mut f: F) -> &mut Self
    where
        S: Into<BenchmarkId>,
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id);
        let n = self.effective_sample_size();
        let t = self.effective_measurement_time();
        run_one(&full, n, t, &mut |b| f(b, input));
        self
    }

    /// Ends the group. (All reporting happens eagerly, so this is a no-op
    /// kept for API compatibility.)
    pub fn finish(self) {}
}

/// A benchmark identifier: a function name plus an optional parameter label,
/// rendered as `name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// Creates an id from a function name and a displayable parameter.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            name: function_name.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// Creates an id carrying only a parameter (uses the group name alone).
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            name: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.name[..], &self.parameter) {
            ("", Some(p)) => write!(f, "{p}"),
            (n, Some(p)) => write!(f, "{n}/{p}"),
            (n, None) => write!(f, "{n}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId {
            name: s,
            parameter: None,
        }
    }
}

/// Passed to each benchmark closure; [`Bencher::iter`] runs and times the
/// measured routine.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`: a short warm-up, then up to `sample_size` timed
    /// samples (stopping early if the measurement-time cap is exceeded).
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up counts against the measurement-time budget so a bench
        // whose single iteration is slow (a full simulation run) cannot
        // blow past the cap before sampling even starts.
        let budget = Instant::now();
        for _ in 0..WARMUP_ITERS {
            hint::black_box(routine());
            if budget.elapsed() > self.measurement_time {
                break;
            }
        }
        self.samples.clear();
        for i in 0..self.sample_size {
            let start = Instant::now();
            hint::black_box(routine());
            self.samples.push(start.elapsed());
            // Always record at least two samples so a spread is reportable.
            if i >= 1 && budget.elapsed() > self.measurement_time {
                break;
            }
        }
    }
}

fn run_one<F>(id: &str, sample_size: usize, measurement_time: Duration, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        sample_size,
        measurement_time,
        samples: Vec::with_capacity(sample_size),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("bench {id:<40} (no samples: closure never called iter)");
        return;
    }
    let min = b.samples.iter().min().copied().unwrap_or_default();
    let max = b.samples.iter().max().copied().unwrap_or_default();
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    println!(
        "bench {id:<40} [{} {} {}] ({} samples)",
        fmt_duration(min),
        fmt_duration(mean),
        fmt_duration(max),
        b.samples.len()
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group. Supports both the configured form
/// (`name = ...; config = ...; targets = ...`) and the simple list form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Expands to a `main` function running the given benchmark groups.
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
    fn bench_function_collects_samples() {
        let mut c = Criterion::default().sample_size(3);
        // Should run without panicking and print one line.
        c.bench_function("smoke", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn group_api_matches_benches_usage() {
        let mut c = Criterion::default().sample_size(2);
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("plain", |b| b.iter(|| black_box(2 * 2)));
        g.bench_with_input(BenchmarkId::new("param", 7), &7u32, |b, n| {
            b.iter(|| black_box(n * 2))
        });
        g.finish();
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from("plain").to_string(), "plain");
        assert_eq!(BenchmarkId::from_parameter(9).to_string(), "9");
    }
}
