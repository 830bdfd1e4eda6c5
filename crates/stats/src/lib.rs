//! Statistics toolkit for the paper's §5 cost-distribution analysis.
//!
//! Provides exactly what the evaluation needs, self-contained:
//!
//! - [`Summary`]: min/mean/max and quantiles (Table 1's `Min Mean Max`
//!   columns plus the `costs ≤ 2`, `costs ≤ 10` fractions);
//! - [`Histogram`]: fixed-width bucketing with the paper's "lower 50% of
//!   sampled costs" zoom (Figure 4);
//! - [`TestOutcome`]: the shared hypothesis-test result type — statistic,
//!   p-bound, recoverable critical values, effect size — with degenerate
//!   inputs reported as typed [`StatsError`]s;
//! - [`chi_square_uniform`] / [`chi_square_gof`]: goodness-of-fit with
//!   p-values via the regularized incomplete gamma function;
//! - [`ks_test`] / [`ks_test_two_sample`]: Kolmogorov–Smirnov tests
//!   against a model CDF or between two samples ([`ks_statistic`] gives
//!   the raw sup-distance);
//! - [`fit_exponential`] and [`fit_gamma`] (MLE with Newton refinement)
//!   with KS goodness-of-fit: §5 observes distributions "resembling
//!   exponential distributions … Gamma-distributions with shape
//!   parameter close to 1";
//! - [`ks_gamma_fit`] / [`ks_exponential_fit`]: Lilliefors-corrected
//!   p-values for those *fitted-parameter* KS tests via a seeded
//!   parametric bootstrap (the classical Kolmogorov bound is optimistic
//!   once parameters are estimated from the tested sample).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bootstrap;
mod hypothesis;
mod special;

pub use bootstrap::{
    bootstrap_quantile_cis, ks_exponential_fit, ks_gamma_fit, BootstrapOutcome, QuantileCi,
};
pub use hypothesis::{NullDistribution, StatsError, TestOutcome};
pub use special::{digamma, gamma_p, gamma_q, kolmogorov_q, ln_gamma, trigamma};

use hypothesis::scaled_ks;

/// Order statistics and moments of a sample.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Summary {
    /// Builds a summary; ignores NaNs. Panics on an empty sample.
    pub fn of(data: &[f64]) -> Summary {
        let mut sorted: Vec<f64> = data.iter().copied().filter(|v| !v.is_nan()).collect();
        assert!(!sorted.is_empty(), "summary of an empty sample");
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let variance = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Summary {
            sorted,
            mean,
            variance,
        }
    }

    /// Sample size.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Smallest value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Quantile by nearest-rank interpolation, `p ∈ [0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p outside [0,1]");
        let idx = p * (self.sorted.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Fraction of the sample `≤ threshold` — Table 1's "costs ≤ 2" and
    /// "costs ≤ 10" columns.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        let count = self.sorted.partition_point(|&v| v <= threshold);
        count as f64 / self.sorted.len() as f64
    }

    /// The sorted sample.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

/// A fixed-bucket-width histogram over `[lo, hi]`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
}

impl Histogram {
    /// Buckets `data` into `buckets` equal-width bins over `[lo, hi]`;
    /// values outside the range are clamped into the edge bins.
    pub fn build(data: &[f64], buckets: usize, lo: f64, hi: f64) -> Histogram {
        assert!(buckets > 0, "need at least one bucket");
        assert!(hi > lo, "empty histogram range");
        let mut counts = vec![0usize; buckets];
        let width = (hi - lo) / buckets as f64;
        for &v in data {
            let idx = (((v - lo) / width) as isize).clamp(0, buckets as isize - 1) as usize;
            counts[idx] += 1;
        }
        Histogram { lo, hi, counts }
    }

    /// The paper's Figure 4 view: histogram of the *lower* `fraction` of
    /// the sorted sample ("zoom-ins to the lower 50% sampled costs; …
    /// the part clipped on the right hand side contains only outlying
    /// elements").
    pub fn lower_fraction(data: &[f64], fraction: f64, buckets: usize) -> Histogram {
        assert!((0.0..=1.0).contains(&fraction));
        let summary = Summary::of(data);
        let cut = summary.quantile(fraction);
        let lo = summary.min();
        let kept: Vec<f64> = data.iter().copied().filter(|&v| v <= cut).collect();
        Histogram::build(&kept, buckets, lo, cut.max(lo + f64::EPSILON))
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// `(bucket_midpoint, count)` series for plotting.
    pub fn series(&self) -> Vec<(f64, usize)> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * width, c))
            .collect()
    }

    /// Lower bound of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Renders an ASCII bar chart (for the experiment binaries).
    pub fn render(&self, bar_width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(c * bar_width / max);
            out.push_str(&format!(
                "{:>12.4e} |{:<width$} {}\n",
                self.lo + (i as f64 + 0.5) * width,
                bar,
                c,
                width = bar_width
            ));
        }
        out
    }
}

/// Chi-square test of observed counts against uniform expectation.
///
/// Degenerate inputs are typed errors: fewer than two categories is
/// [`StatsError::NotEnoughCategories`] (no degrees of freedom), a table
/// whose counts sum to zero is [`StatsError::EmptySample`].
pub fn chi_square_uniform(observed: &[usize]) -> Result<TestOutcome, StatsError> {
    if observed.len() < 2 {
        return Err(StatsError::NotEnoughCategories {
            got: observed.len(),
        });
    }
    let total: usize = observed.iter().sum();
    if total == 0 {
        return Err(StatsError::EmptySample);
    }
    let expected = total as f64 / observed.len() as f64;
    chi_square_gof(observed, &vec![expected; observed.len()])
}

/// Chi-square goodness-of-fit against explicit expected counts.
pub fn chi_square_gof(observed: &[usize], expected: &[f64]) -> Result<TestOutcome, StatsError> {
    if observed.len() != expected.len() {
        return Err(StatsError::LengthMismatch {
            observed: observed.len(),
            expected: expected.len(),
        });
    }
    if observed.len() < 2 {
        return Err(StatsError::NotEnoughCategories {
            got: observed.len(),
        });
    }
    if let Some((index, &value)) = expected
        .iter()
        .enumerate()
        .find(|(_, &e)| e <= 0.0 || e.is_nan())
    {
        return Err(StatsError::NonPositiveExpected { index, value });
    }
    let statistic: f64 = observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
        .sum();
    let dof = observed.len() - 1;
    Ok(TestOutcome {
        test: "chi-square",
        statistic,
        p_value: gamma_q(dof as f64 / 2.0, statistic / 2.0),
        n: observed.iter().sum(),
        null: NullDistribution::ChiSquare { dof },
    })
}

/// An exponential fit `f(x) = rate · exp(−rate·(x − shift))`.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialFit {
    /// Rate parameter (1/mean of the shifted sample).
    pub rate: f64,
    /// Location shift (the sample minimum).
    pub shift: f64,
}

impl ExponentialFit {
    /// CDF of the fitted distribution.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.shift {
            0.0
        } else {
            1.0 - (-(x - self.shift) * self.rate).exp()
        }
    }

    /// KS goodness-of-fit of `data` against this fit. Since the
    /// parameters were estimated from the same data, the p-value is an
    /// *optimistic* bound (the Lilliefors effect) — use it to compare
    /// models and flag gross misfits; for calibrated significance use
    /// the parametric-bootstrap correction ([`ks_exponential_fit`] /
    /// [`ks_gamma_fit`]).
    pub fn goodness_of_fit(&self, data: &[f64]) -> Result<TestOutcome, StatsError> {
        ks_test(data, |x| self.cdf(x))
    }
}

/// Maximum-likelihood exponential fit (shift = min, rate = 1/mean).
pub fn fit_exponential(data: &[f64]) -> ExponentialFit {
    let s = Summary::of(data);
    let shift = s.min();
    let mean = (s.mean() - shift).max(f64::EPSILON);
    ExponentialFit {
        rate: 1.0 / mean,
        shift,
    }
}

/// A Gamma fit with shape `k` and scale `θ`.
#[derive(Debug, Clone, Copy)]
pub struct GammaFit {
    /// Shape parameter `k` (the paper's distributions have `k ≈ 1`).
    pub shape: f64,
    /// Scale parameter `θ`.
    pub scale: f64,
    /// Location shift applied before fitting (the sample minimum).
    pub shift: f64,
}

impl GammaFit {
    /// CDF of the fitted distribution.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.shift {
            0.0
        } else {
            gamma_p(self.shape, (x - self.shift) / self.scale)
        }
    }

    /// KS goodness-of-fit of `data` against this fit. Since the
    /// parameters were estimated from the same data, the p-value is an
    /// *optimistic* bound (the Lilliefors effect) — use it to compare
    /// models and flag gross misfits; for calibrated significance use
    /// the parametric-bootstrap correction ([`ks_exponential_fit`] /
    /// [`ks_gamma_fit`]).
    pub fn goodness_of_fit(&self, data: &[f64]) -> Result<TestOutcome, StatsError> {
        ks_test(data, |x| self.cdf(x))
    }
}

/// Maximum-likelihood Gamma fit: Minka's closed-form initialization for
/// the shape followed by Newton steps on
/// `ln k − ψ(k) = ln(mean) − mean(ln x)`.
pub fn fit_gamma(data: &[f64]) -> GammaFit {
    let s = Summary::of(data);
    // Shift so the support starts at zero (scaled costs start at ~1).
    let shift = s.min();
    let eps = (s.mean() - shift).abs().max(1e-12) * 1e-9 + 1e-12;
    let shifted: Vec<f64> = s.sorted().iter().map(|&v| v - shift + eps).collect();
    let n = shifted.len() as f64;
    let mean = shifted.iter().sum::<f64>() / n;
    let mean_ln = shifted.iter().map(|&v| v.ln()).sum::<f64>() / n;
    let stat = (mean.ln() - mean_ln).max(1e-12);

    // Minka (2002) initialization.
    let mut k = (3.0 - stat + ((stat - 3.0).powi(2) + 24.0 * stat).sqrt()) / (12.0 * stat);
    for _ in 0..50 {
        let f = k.ln() - digamma(k) - stat;
        let fp = 1.0 / k - trigamma(k);
        let next = (k - f / fp).max(1e-9);
        if (next - k).abs() < 1e-12 * k {
            k = next;
            break;
        }
        k = next;
    }
    GammaFit {
        shape: k,
        scale: mean / k,
        shift,
    }
}

/// Kolmogorov–Smirnov statistic of a sample against a CDF.
pub fn ks_statistic(data: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    let s = Summary::of(data);
    let n = s.n() as f64;
    s.sorted()
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = cdf(x);
            let lo = (f - i as f64 / n).abs();
            let hi = ((i as f64 + 1.0) / n - f).abs();
            lo.max(hi)
        })
        .fold(0.0, f64::max)
}

/// One-sample Kolmogorov–Smirnov test of `data` against the model CDF.
///
/// The p-value uses the asymptotic Kolmogorov distribution with
/// Stephens' finite-sample correction — accurate for `n ≳ 35` and a
/// safe upper bound below that.
pub fn ks_test(data: &[f64], cdf: impl Fn(f64) -> f64) -> Result<TestOutcome, StatsError> {
    let finite = data.iter().filter(|v| !v.is_nan()).count();
    if finite == 0 {
        return Err(StatsError::EmptySample);
    }
    let d = ks_statistic(data, cdf);
    let effective_n = finite as f64;
    Ok(TestOutcome {
        test: "ks-1sample",
        statistic: d,
        p_value: kolmogorov_q(scaled_ks(d, effective_n)),
        n: finite,
        null: NullDistribution::Kolmogorov { effective_n },
    })
}

/// Two-sample Kolmogorov–Smirnov test: are `a` and `b` draws from the
/// same distribution? The statistic is the sup-distance between the two
/// empirical CDFs; the null uses the effective size `n·m/(n+m)`.
pub fn ks_test_two_sample(a: &[f64], b: &[f64]) -> Result<TestOutcome, StatsError> {
    let mut xs: Vec<f64> = a.iter().copied().filter(|v| !v.is_nan()).collect();
    let mut ys: Vec<f64> = b.iter().copied().filter(|v| !v.is_nan()).collect();
    if xs.is_empty() || ys.is_empty() {
        return Err(StatsError::EmptySample);
    }
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    let (n, m) = (xs.len(), ys.len());
    // Merge-walk the two sorted samples tracking the ECDF gap.
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < n && j < m {
        let x = if xs[i] <= ys[j] { xs[i] } else { ys[j] };
        while i < n && xs[i] <= x {
            i += 1;
        }
        while j < m && ys[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / n as f64 - j as f64 / m as f64).abs());
    }
    let effective_n = (n * m) as f64 / (n + m) as f64;
    Ok(TestOutcome {
        test: "ks-2sample",
        statistic: d,
        p_value: kolmogorov_q(scaled_ks(d, effective_n)),
        n: n + m,
        null: NullDistribution::Kolmogorov { effective_n },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.n(), 4);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.mean(), 2.5);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.quantile(0.5), 2.5);
    }

    #[test]
    fn summary_ignores_nans() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.n(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_rejects_empty() {
        Summary::of(&[]);
    }

    #[test]
    fn fraction_below_matches_table1_semantics() {
        let s = Summary::of(&[1.0, 1.5, 2.0, 5.0, 11.0]);
        assert!((s.fraction_below(2.0) - 0.6).abs() < 1e-12);
        assert!((s.fraction_below(10.0) - 0.8).abs() < 1e-12);
        assert_eq!(s.fraction_below(0.5), 0.0);
        assert_eq!(s.fraction_below(100.0), 1.0);
    }

    #[test]
    fn histogram_buckets_and_clamping() {
        let h = Histogram::build(&[0.0, 0.1, 0.9, 1.0, -5.0, 99.0], 2, 0.0, 1.0);
        // -5 clamps into bucket 0; 1.0 and 99 into bucket 1.
        assert_eq!(h.counts(), &[3, 3]);
        let series = h.series();
        assert!((series[0].0 - 0.25).abs() < 1e-12);
        assert!((series[1].0 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lower_fraction_zooms_like_figure4() {
        // 100 points 1..=100: lower 50% keeps values <= ~50.5.
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let h = Histogram::lower_fraction(&data, 0.5, 10);
        let kept: usize = h.counts().iter().sum();
        assert!((50..=51).contains(&kept), "kept {kept}");
        assert_eq!(h.lo(), 1.0);
        assert!(h.hi() <= 51.0);
    }

    #[test]
    fn histogram_render_is_plottable() {
        let h = Histogram::build(&[0.1, 0.1, 0.9], 2, 0.0, 1.0);
        let text = h.render(10);
        assert!(text.contains('#'));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn chi_square_uniform_accepts_uniform_counts() {
        let t = chi_square_uniform(&[100, 103, 98, 99]).unwrap();
        assert!(t.p_value > 0.5, "p={}", t.p_value);
        assert_eq!(t.dof(), Some(3));
        assert!(!t.rejects_at(0.05));
        assert_eq!(t.n, 400);
    }

    #[test]
    fn chi_square_uniform_rejects_skewed_counts() {
        let t = chi_square_uniform(&[400, 10, 10, 10]).unwrap();
        assert!(t.p_value < 1e-6, "p={}", t.p_value);
        assert!(t.statistic > 100.0);
        assert!(t.rejects_at(0.001));
        // Cohen's w on a 93%-in-one-bucket table is a huge effect.
        assert!(t.effect_size() > 1.0, "w = {}", t.effect_size());
    }

    #[test]
    fn chi_square_p_value_matches_tables() {
        // k=3 dof, x=7.815 -> p = 0.05.
        let t = chi_square_gof(&[0, 0, 0, 0], &[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(t.dof(), Some(3));
        assert!((gamma_q(1.5, 7.815 / 2.0) - 0.05).abs() < 1e-3);
    }

    #[test]
    fn chi_square_rejects_degenerate_inputs_with_typed_errors() {
        // Empty table: no categories at all.
        assert_eq!(
            chi_square_uniform(&[]),
            Err(StatsError::NotEnoughCategories { got: 0 })
        );
        // Single bucket: zero degrees of freedom (was a panic in
        // gamma_q(0, ·) before).
        assert_eq!(
            chi_square_uniform(&[500]),
            Err(StatsError::NotEnoughCategories { got: 1 })
        );
        // All-zero counts: nothing was observed (was NaN expectations).
        assert_eq!(chi_square_uniform(&[0, 0, 0]), Err(StatsError::EmptySample));
        // GOF-specific degeneracies.
        assert_eq!(
            chi_square_gof(&[1, 2], &[1.0]),
            Err(StatsError::LengthMismatch {
                observed: 2,
                expected: 1
            })
        );
        assert!(matches!(
            chi_square_gof(&[1, 2], &[1.0, 0.0]),
            Err(StatsError::NonPositiveExpected { index: 1, .. })
        ));
        assert!(matches!(
            chi_square_gof(&[5], &[5.0]),
            Err(StatsError::NotEnoughCategories { got: 1 })
        ));
    }

    #[test]
    fn ks_test_accepts_the_true_model() {
        // Uniform grid sample against the uniform CDF: tiny D, p ≈ 1.
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.5) / 1000.0).collect();
        let t = ks_test(&data, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(t.statistic < 0.01, "D = {}", t.statistic);
        assert!(t.p_value > 0.99, "p = {}", t.p_value);
        assert!(!t.rejects_at(0.05));
    }

    #[test]
    fn ks_test_rejects_the_wrong_model() {
        // Uniform sample against an exponential CDF.
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.5) / 1000.0).collect();
        let t = ks_test(&data, |x| 1.0 - (-x).exp()).unwrap();
        assert!(t.rejects_at(1e-6), "p = {}", t.p_value);
        // For KS, the effect size is D itself.
        assert!((t.effect_size() - t.statistic).abs() < 1e-15);
    }

    #[test]
    fn ks_test_p_value_matches_critical_table() {
        // Place D exactly at the asymptotic 5% critical point: p ≈ 0.05.
        let n = 2500usize;
        let data: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let crit = 1.3581 / (n as f64).sqrt();
        // Shift the whole sample by `crit` relative to the model.
        let t = ks_test(&data, |x| (x + crit).clamp(0.0, 1.0)).unwrap();
        assert!((t.p_value - 0.05).abs() < 0.01, "p = {}", t.p_value);
    }

    #[test]
    fn ks_two_sample_accepts_same_distribution() {
        let a: Vec<f64> = (0..800).map(|i| (i as f64 + 0.5) / 800.0).collect();
        let b: Vec<f64> = (0..600).map(|i| (i as f64 + 0.25) / 600.0).collect();
        let t = ks_test_two_sample(&a, &b).unwrap();
        assert!(t.p_value > 0.5, "p = {}", t.p_value);
        assert_eq!(t.n, 1400);
    }

    #[test]
    fn ks_two_sample_rejects_shifted_distribution() {
        let a: Vec<f64> = (0..800).map(|i| (i as f64 + 0.5) / 800.0).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.2).collect();
        let t = ks_test_two_sample(&a, &b).unwrap();
        assert!((t.statistic - 0.2).abs() < 0.01, "D = {}", t.statistic);
        assert!(t.rejects_at(1e-6), "p = {}", t.p_value);
    }

    #[test]
    fn ks_two_sample_statistic_is_symmetric() {
        let a = [0.1, 0.4, 0.4, 0.9];
        let b = [0.2, 0.3, 0.8, 0.85, 0.95];
        let ab = ks_test_two_sample(&a, &b).unwrap();
        let ba = ks_test_two_sample(&b, &a).unwrap();
        assert!((ab.statistic - ba.statistic).abs() < 1e-15);
        assert!((ab.p_value - ba.p_value).abs() < 1e-15);
    }

    #[test]
    fn ks_tests_reject_empty_samples() {
        assert_eq!(ks_test(&[], |x| x).unwrap_err(), StatsError::EmptySample);
        assert_eq!(
            ks_test(&[f64::NAN], |x| x).unwrap_err(),
            StatsError::EmptySample
        );
        assert_eq!(
            ks_test_two_sample(&[1.0], &[]).unwrap_err(),
            StatsError::EmptySample
        );
    }

    #[test]
    fn gamma_goodness_of_fit_flags_misfit() {
        // A gamma fit to its own (exponential-like) data passes …
        let expo: Vec<f64> = (1..2000)
            .map(|i| -(1.0 - i as f64 / 2000.0).ln() * 3.0)
            .collect();
        let fit = fit_gamma(&expo);
        let good = fit.goodness_of_fit(&expo).unwrap();
        assert!(!good.rejects_at(0.001), "{good}");
        // … while bimodal data is flagged even by its own best fit.
        let bimodal: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { 100.0 })
            .collect();
        let bad_fit = fit_gamma(&bimodal);
        let bad = bad_fit.goodness_of_fit(&bimodal).unwrap();
        assert!(bad.rejects_at(0.001), "{bad}");
        assert!(bad.statistic > good.statistic * 5.0);
    }

    #[test]
    fn exponential_fit_recovers_rate() {
        // Deterministic exponential sample via inverse-CDF at uniform
        // quantiles: x_i = -ln(1 - u_i)/rate.
        let rate = 2.5;
        let data: Vec<f64> = (1..1000)
            .map(|i| {
                let u = i as f64 / 1000.0;
                -(1.0 - u).ln() / rate
            })
            .collect();
        let fit = fit_exponential(&data);
        assert!((fit.rate - rate).abs() / rate < 0.05, "rate {}", fit.rate);
        assert!(fit.cdf(fit.shift) == 0.0);
        assert!(fit.cdf(f64::INFINITY) == 1.0);
        let ks = ks_statistic(&data, |x| fit.cdf(x));
        assert!(ks < 0.05, "ks {ks}");
    }

    #[test]
    fn gamma_fit_recovers_shape_one() {
        // Exponential = Gamma(shape 1): the fit must find shape ≈ 1 —
        // this is exactly the §5 observation the fit exists to check.
        let data: Vec<f64> = (1..2000)
            .map(|i| {
                let u = i as f64 / 2000.0;
                -(1.0 - u).ln() * 3.0
            })
            .collect();
        let fit = fit_gamma(&data);
        assert!(
            (fit.shape - 1.0).abs() < 0.15,
            "shape {} should be ~1",
            fit.shape
        );
    }

    #[test]
    fn gamma_fit_recovers_larger_shapes() {
        // Gamma(k=3) sample as the sum of three inverse-CDF exponentials
        // at shuffled quantile offsets (deterministic, roughly
        // independent).
        let n = 3000usize;
        let exp_at = |j: usize, m: usize| -> f64 {
            let u = (j % m) as f64 / m as f64 + 0.5 / m as f64;
            -(1.0 - u).ln()
        };
        let data: Vec<f64> = (0..n)
            .map(|i| exp_at(i * 7 + 1, n) + exp_at(i * 13 + 3, n) + exp_at(i * 29 + 11, n))
            .collect();
        let fit = fit_gamma(&data);
        assert!(
            fit.shape > 2.0 && fit.shape < 4.5,
            "shape {} should be ~3",
            fit.shape
        );
    }

    #[test]
    fn ks_statistic_detects_wrong_model() {
        let data: Vec<f64> = (1..500).map(|i| i as f64 / 500.0).collect(); // uniform
        let exp_fit = fit_exponential(&data);
        let ks_exp = ks_statistic(&data, |x| exp_fit.cdf(x));
        let ks_unif = ks_statistic(&data, |x| x.clamp(0.0, 1.0));
        assert!(ks_unif < 0.01);
        assert!(ks_exp > ks_unif * 5.0);
    }
}
