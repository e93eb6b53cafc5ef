//! Offline shim for the subset of `criterion` 0.5 this workspace's
//! `harness = false` benches use.
//!
//! The build environment has no network access to a cargo registry, so
//! the real crate cannot be fetched. The shim keeps the same authoring
//! API (`criterion_group!` / `criterion_main!`, benchmark groups,
//! throughput annotation, `Bencher::iter`) and implements a simple but
//! honest measurement loop: per benchmark it warms up, then times
//! `sample_size` samples whose per-sample iteration count is calibrated
//! so a sample lasts roughly `measurement_time / sample_size`.
//!
//! Each benchmark reports one line:
//!
//! ```text
//! <group>/<id>   time: [<min> <mean> <max>]  σ=<stddev> ±<ci95>(95%)  n=<samples>×<iters>  p50/p99/p999: <p50>/<p99>/<p999>  thrpt: <rate>
//! ```
//!
//! where `min`/`mean`/`max` are per-iteration times over the samples
//! (min ≈ the low-noise floor, mean the central estimate the optional
//! throughput rate is derived from, max the tail), `σ` the sample
//! standard deviation, `±…(95%)` the 95% confidence half-width of the
//! mean (`1.96σ/√samples` — the mean is `mean ± ci95`), and `n` the
//! sample count times the calibrated iterations per sample — enough
//! spread information to make before/after comparisons defensible
//! ([`Measurement::distinguishable_from`] checks that two results'
//! intervals do not overlap). The `p50/p99/p999` block reports exact
//! tail percentiles from a dedicated pass that times *individual*
//! iterations (the sampled loop above amortizes per-iteration jitter
//! away, which is right for the mean but hides the tail). There is no
//! HTML report and no further regression analysis.
//!
//! Beyond the upstream API, the shim adds a small comparison facility
//! for scaling sweeps: [`BenchmarkGroup::bench_measured`] runs a
//! benchmark exactly like `bench_function` but also returns its
//! [`Measurement`], and [`Comparison`] renders a baseline-vs-candidate
//! ratio line:
//!
//! ```text
//! <name>   <candidate> vs <baseline>: x<ratio>  (<candidate rate> vs <baseline rate>)
//! ```
//!
//! The ratio is candidate/baseline throughput when both carry rates
//! (higher = candidate faster), baseline/candidate mean time otherwise
//! (still higher = candidate faster).

use std::fmt;
use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark; reported as elements or
/// bytes per second next to the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter, rendered as
    /// `name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id made of the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Conversion into [`BenchmarkId`], so `bench_function` accepts plain
/// strings as well as structured ids.
pub trait IntoBenchmarkId {
    /// Converts to an id.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            id: self.to_string(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self }
    }
}

/// One benchmark's measured result, as returned by
/// [`BenchmarkGroup::bench_measured`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Minimum per-iteration time over the samples.
    pub min: Duration,
    /// Mean per-iteration time over the samples.
    pub mean: Duration,
    /// Maximum per-iteration time over the samples.
    pub max: Duration,
    /// Sample standard deviation (Bessel-corrected) of the
    /// per-iteration times over the samples; zero with fewer than two
    /// samples.
    pub stddev: Duration,
    /// Half-width of the 95% confidence interval of the mean
    /// (`1.96 · stddev / √samples`): the mean is `mean ± ci95`. Zero
    /// with fewer than two samples.
    pub ci95: Duration,
    /// Median single-iteration time from the dedicated latency pass.
    pub p50: Duration,
    /// 99th-percentile single-iteration time from the latency pass.
    pub p99: Duration,
    /// 99.9th-percentile single-iteration time from the latency pass
    /// (equals the observed maximum when fewer than 1000 iterations
    /// fit the budget).
    pub p999: Duration,
    /// Mean throughput in units (elements or bytes) per second, when
    /// the group carried a [`Throughput`] annotation.
    pub rate: Option<f64>,
}

impl Measurement {
    /// `true` when the two measurements' 95% confidence intervals do
    /// **not** overlap — the difference in means is unlikely to be
    /// noise. This is what makes a before/after ratio (a compaction
    /// pause, a batching win) defensible rather than anecdotal.
    #[must_use]
    pub fn distinguishable_from(&self, other: &Measurement) -> bool {
        let (lo, hi) = if self.mean <= other.mean {
            (self, other)
        } else {
            (other, self)
        };
        lo.mean + lo.ci95 < hi.mean.saturating_sub(hi.ci95)
    }

    /// Candidate-vs-baseline speedup: throughput ratio when both sides
    /// carry rates, inverse mean-time ratio otherwise. Greater than 1
    /// means `self` (the candidate) is faster.
    #[must_use]
    pub fn speedup_over(&self, baseline: &Measurement) -> f64 {
        match (self.rate, baseline.rate) {
            (Some(c), Some(b)) if b > 0.0 => c / b,
            _ => {
                if self.mean.is_zero() {
                    f64::INFINITY
                } else {
                    baseline.mean.as_secs_f64() / self.mean.as_secs_f64()
                }
            }
        }
    }
}

/// Baseline-vs-candidate reporting for scaling sweeps. Feed it the
/// [`Measurement`]s returned by [`BenchmarkGroup::bench_measured`];
/// every [`Comparison::versus`] call prints one ratio line (format in
/// the [crate docs](crate)).
///
/// ```
/// use std::time::Duration;
/// use criterion::{Comparison, Measurement};
///
/// let base = Measurement {
///     min: Duration::from_micros(9),
///     mean: Duration::from_micros(10),
///     max: Duration::from_micros(12),
///     stddev: Duration::from_micros(1),
///     ci95: Duration::from_nanos(620),
///     p50: Duration::from_micros(10),
///     p99: Duration::from_micros(12),
///     p999: Duration::from_micros(12),
///     rate: Some(1.0e6),
/// };
/// let cand = Measurement { rate: Some(2.5e6), ..base };
/// let speedup = Comparison::new("sweep", "1 thread", base)
///     .versus("4 threads", cand);
/// assert!((speedup - 2.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Comparison {
    name: String,
    baseline_label: String,
    baseline: Measurement,
}

impl Comparison {
    /// Fixes the baseline every later candidate is compared against.
    pub fn new(
        name: impl Into<String>,
        baseline_label: impl Into<String>,
        baseline: Measurement,
    ) -> Self {
        Comparison {
            name: name.into(),
            baseline_label: baseline_label.into(),
            baseline,
        }
    }

    /// Prints the candidate's ratio line and returns the speedup
    /// (candidate over baseline; > 1 = candidate faster).
    pub fn versus(&self, label: impl Into<String>, candidate: Measurement) -> f64 {
        let label = label.into();
        let speedup = candidate.speedup_over(&self.baseline);
        let detail = match (candidate.rate, self.baseline.rate) {
            (Some(c), Some(b)) => format!("({c:.3e} vs {b:.3e})"),
            _ => format!("({:.3?} vs {:.3?})", candidate.mean, self.baseline.mean),
        };
        println!(
            "{:<55} {} vs {}: x{speedup:.2}  {detail}",
            self.name, label, self.baseline_label
        );
        speedup
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `iters` calls of `routine`, excluding per-iteration
    /// `setup` from the measurement.
    pub fn iter_with_setup<I, O, S: FnMut() -> I, F: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: F,
    ) {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            elapsed += start.elapsed();
        }
        self.elapsed = elapsed;
    }
}

/// The benchmark driver; create one per `criterion_group!` target.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Accepted for API compatibility; the shim has no CLI options.
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
            throughput: None,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let mut g = self.benchmark_group("");
        g.bench_function(id, f);
        g.finish();
        self
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Time spent warming up before measurement.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Target total measurement time.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_benchmark_id();
        self.run(&id.id, &mut |b| f(b));
        self
    }

    /// Runs one benchmark exactly like
    /// [`bench_function`](BenchmarkGroup::bench_function) (same
    /// measurement loop, same report line) and additionally returns
    /// the [`Measurement`], for feeding a [`Comparison`].
    pub fn bench_measured<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> Measurement {
        let id = id.into_benchmark_id();
        self.run(&id.id, &mut |b| f(b))
    }

    /// Runs one benchmark with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_benchmark_id();
        self.run(&id.id, &mut |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn run(&mut self, id: &str, routine: &mut dyn FnMut(&mut Bencher)) -> Measurement {
        let full = if self.name.is_empty() {
            id.to_string()
        } else {
            format!("{}/{}", self.name, id)
        };

        // Warm-up & calibration: run single iterations until the warm-up
        // budget is spent, learning the per-iteration cost.
        let mut one = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let warm_start = Instant::now();
        let mut calib = Duration::ZERO;
        let mut calib_iters = 0u64;
        while warm_start.elapsed() < self.warm_up_time || calib_iters == 0 {
            routine(&mut one);
            calib += one.elapsed.max(Duration::from_nanos(1));
            calib_iters += 1;
            if calib_iters >= 1000 {
                break;
            }
        }
        let per_iter = calib / calib_iters as u32;

        // Choose an iteration count so one sample lasts about
        // measurement_time / sample_size.
        let sample_budget = self.measurement_time / self.sample_size as u32;
        let iters = if per_iter.is_zero() {
            1
        } else {
            (sample_budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };

        let mut samples: Vec<Duration> = Vec::with_capacity(self.sample_size);
        let mut total = Duration::ZERO;
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            routine(&mut b);
            samples.push(b.elapsed / iters as u32);
            total += b.elapsed;
        }
        // The rate's own mean, kept in `f64` seconds: a sub-nanosecond
        // routine truncates to a zero `Duration` per iteration, and a
        // measured benchmark must still carry its rate.
        let mean_secs = total.as_secs_f64() / (samples.len() as u64 * iters).max(1) as f64;
        let min = samples.iter().min().copied().unwrap_or_default();
        let max = samples.iter().max().copied().unwrap_or_default();
        let mean = samples
            .iter()
            .sum::<Duration>()
            .checked_div(samples.len() as u32)
            .unwrap_or_default();
        // Sample standard deviation (Bessel-corrected) and the 95%
        // confidence half-width of the mean.
        let (stddev, ci95) = if samples.len() > 1 {
            let mean_s = mean.as_secs_f64();
            let var = samples
                .iter()
                .map(|s| (s.as_secs_f64() - mean_s).powi(2))
                .sum::<f64>()
                / (samples.len() - 1) as f64;
            let sd = var.sqrt();
            (
                Duration::from_secs_f64(sd),
                Duration::from_secs_f64(1.96 * sd / (samples.len() as f64).sqrt()),
            )
        } else {
            (Duration::ZERO, Duration::ZERO)
        };

        // Dedicated latency pass: time individual iterations so the
        // tail is visible. The sampled loop above divides a block time
        // by the iteration count, which averages the p99/p999 outliers
        // (a compaction pause, a flush-epoch stall) into the mean; here
        // every iteration gets its own clock read and the percentiles
        // are exact order statistics of the observed set. The floor of
        // 1000 keeps p999 a real order statistic: below that, index
        // ceil(0.999·n)−1 collapses onto the same sample as p99 and the
        // reported tail is fiction.
        let lat_iters = if per_iter.is_zero() {
            1000
        } else {
            (self.measurement_time.as_nanos() / per_iter.as_nanos().max(1)).clamp(1000, 10_000)
                as usize
        };
        let mut lats: Vec<Duration> = Vec::with_capacity(lat_iters);
        for _ in 0..lat_iters {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            routine(&mut b);
            lats.push(b.elapsed);
        }
        lats.sort_unstable();
        let percentile = |q: f64| -> Duration {
            let idx = ((q * lats.len() as f64).ceil() as usize).max(1) - 1;
            lats[idx.min(lats.len() - 1)]
        };
        let (p50, p99, p999) = (percentile(0.50), percentile(0.99), percentile(0.999));

        let (rate, rate_note) = match self.throughput {
            Some(Throughput::Elements(n)) if mean_secs > 0.0 => {
                let r = n as f64 / mean_secs;
                (Some(r), format!("  thrpt: {r:.3e} elem/s"))
            }
            Some(Throughput::Bytes(n)) if mean_secs > 0.0 => {
                let r = n as f64 / mean_secs;
                (Some(r), format!("  thrpt: {r:.3e} B/s"))
            }
            _ => (None, String::new()),
        };
        println!(
            "{full:<55} time: [{min:>10.3?} {mean:>10.3?} {max:>10.3?}]  σ={stddev:.3?} \
             ±{ci95:.3?}(95%)  n={}×{iters}  p50/p99/p999: {p50:.3?}/{p99:.3?}/{p999:.3?}\
             {rate_note}",
            samples.len()
        );
        Measurement {
            min,
            mean,
            max,
            stddev,
            ci95,
            p50,
            p99,
            p999,
            rate,
        }
    }
}

/// Declares a group function running each target against a fresh
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running each group.
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
    fn bench_api_round_trips() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        g.throughput(Throughput::Elements(1));
        let mut ran = 0u64;
        g.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            ran += 1;
        });
        g.bench_with_input(BenchmarkId::new("param", 3), &3u64, |b, &x| {
            b.iter(|| black_box(x * 2));
        });
        g.finish();
        assert!(ran >= 2, "warm-up plus samples should call the closure");
    }

    #[test]
    fn bench_measured_reports_rate_and_spread() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(3))
            .throughput(Throughput::Elements(10));
        let m = g.bench_measured("measured", |b| {
            b.iter(|| black_box((0..100u64).sum::<u64>()));
        });
        g.finish();
        assert!(m.min <= m.mean && m.mean <= m.max);
        assert!(m.rate.unwrap_or(0.0) > 0.0);
        // Percentiles come from the single-iteration pass: ordered and
        // populated.
        assert!(m.p50 > Duration::ZERO);
        assert!(m.p50 <= m.p99 && m.p99 <= m.p999);
        // 3 samples: the spread statistics are populated and the CI is
        // narrower than the spread itself (1.96/√3 < 1.96).
        assert!(m.ci95 <= m.stddev * 2);
        assert!(
            m.stddev <= m.max - m.min + Duration::from_nanos(1),
            "stddev {:?} cannot exceed the full spread",
            m.stddev
        );
    }

    #[test]
    fn confidence_intervals_decide_distinguishability() {
        let base = Measurement {
            min: Duration::from_micros(8),
            mean: Duration::from_micros(10),
            max: Duration::from_micros(14),
            stddev: Duration::from_micros(2),
            ci95: Duration::from_micros(1),
            p50: Duration::from_micros(10),
            p99: Duration::from_micros(13),
            p999: Duration::from_micros(14),
            rate: None,
        };
        let clearly_slower = Measurement {
            mean: Duration::from_micros(20),
            ..base
        };
        let within_noise = Measurement {
            mean: Duration::from_micros(11),
            ..base
        };
        assert!(base.distinguishable_from(&clearly_slower));
        assert!(clearly_slower.distinguishable_from(&base), "symmetric");
        assert!(!base.distinguishable_from(&within_noise));
        assert!(!base.distinguishable_from(&base));
    }

    #[test]
    fn comparison_speedup_prefers_rates_then_times() {
        let base = Measurement {
            min: Duration::from_micros(8),
            mean: Duration::from_micros(10),
            max: Duration::from_micros(14),
            stddev: Duration::from_micros(2),
            ci95: Duration::from_micros(1),
            p50: Duration::from_micros(10),
            p99: Duration::from_micros(13),
            p999: Duration::from_micros(14),
            rate: Some(1.0e6),
        };
        let cand = Measurement {
            rate: Some(3.0e6),
            ..base
        };
        assert!((cand.speedup_over(&base) - 3.0).abs() < 1e-9);
        // Without rates, fall back to inverse mean-time ratio.
        let slow = Measurement {
            mean: Duration::from_micros(20),
            rate: None,
            ..base
        };
        let fast = Measurement {
            mean: Duration::from_micros(5),
            rate: None,
            ..base
        };
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-9);
        let cmp = Comparison::new("sweep", "baseline", slow);
        assert!((cmp.versus("candidate", fast) - 4.0).abs() < 1e-9);
    }
}
