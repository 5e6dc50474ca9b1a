//! Statistics used by the measurement and simulation campaigns.
//!
//! * [`OnlineStats`] — Welford's online mean/variance with Student-t
//!   confidence intervals (the paper reports 90 % CIs on latency means).
//! * [`Ecdf`] — empirical CDFs for the latency/delay distribution figures.

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`NaN` if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Half-width of the two-sided Student-t confidence interval for the
    /// mean at the given confidence level (e.g. `0.90`).
    ///
    /// Returns 0 for fewer than two observations.
    pub fn ci_half_width(&self, confidence: f64) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let t = student_t_quantile(confidence, self.n - 1);
        t * self.std_dev() / (self.n as f64).sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Two-sided Student-t quantile for the given confidence and degrees of
/// freedom. Table-based for the confidence levels used in the study
/// (0.90, 0.95, 0.99); interpolated over df and falling back to the
/// normal quantile for large df.
pub fn student_t_quantile(confidence: f64, df: u64) -> f64 {
    // Rows: df 1..=30, then 40, 60, 120, inf. Columns: 90%, 95%, 99%.
    const TABLE: &[(u64, [f64; 3])] = &[
        (1, [6.314, 12.706, 63.657]),
        (2, [2.920, 4.303, 9.925]),
        (3, [2.353, 3.182, 5.841]),
        (4, [2.132, 2.776, 4.604]),
        (5, [2.015, 2.571, 4.032]),
        (6, [1.943, 2.447, 3.707]),
        (7, [1.895, 2.365, 3.499]),
        (8, [1.860, 2.306, 3.355]),
        (9, [1.833, 2.262, 3.250]),
        (10, [1.812, 2.228, 3.169]),
        (12, [1.782, 2.179, 3.055]),
        (15, [1.753, 2.131, 2.947]),
        (20, [1.725, 2.086, 2.845]),
        (25, [1.708, 2.060, 2.787]),
        (30, [1.697, 2.042, 2.750]),
        (40, [1.684, 2.021, 2.704]),
        (60, [1.671, 2.000, 2.660]),
        (120, [1.658, 1.980, 2.617]),
        (u64::MAX, [1.645, 1.960, 2.576]),
    ];
    let col = if (confidence - 0.90).abs() < 1e-9 {
        0
    } else if (confidence - 0.95).abs() < 1e-9 {
        1
    } else if (confidence - 0.99).abs() < 1e-9 {
        2
    } else {
        // Nearest supported level; the study only uses the three above.
        if confidence < 0.925 {
            0
        } else if confidence < 0.97 {
            1
        } else {
            2
        }
    };
    let mut prev = TABLE[0];
    for &row in TABLE {
        if df <= row.0 {
            if row.0 == df || row.0 == u64::MAX || prev.0 == row.0 {
                return row.1[col];
            }
            // Linear interpolation in 1/df, the standard approach.
            let (d0, v0) = (prev.0 as f64, prev.1[col]);
            let (d1, v1) = (row.0 as f64, row.1[col]);
            let w = (1.0 / df as f64 - 1.0 / d1) / (1.0 / d0 - 1.0 / d1);
            return v1 + w * (v0 - v1);
        }
        prev = row;
    }
    TABLE.last().unwrap().1[col]
}

/// An empirical cumulative distribution function built from samples.
///
/// Used to regenerate the CDF figures (Figs. 6, 7a, 7b of the paper).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples. NaNs are rejected.
    ///
    /// # Panics
    /// Panics if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "ECDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 <= q <= 1`), by linear interpolation.
    ///
    /// # Panics
    /// Panics if the ECDF is empty or `q` outside `[0,1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        if i + 1 >= n {
            self.sorted[n - 1]
        } else {
            self.sorted[i] * (1.0 - frac) + self.sorted[i + 1] * frac
        }
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Minimum sample.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty ECDF")
    }

    /// Maximum sample.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty ECDF")
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluates the CDF on a uniform grid of `points` x-values spanning
    /// the sample range: the series plotted in the paper's CDF figures.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let (lo, hi) = (self.min(), self.max());
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        (0..points)
            .map(|i| {
                let x = lo + span * i as f64 / (points - 1).max(1) as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of that classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_single_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci_half_width(0.90), 0.0);
        assert!(s.min().is_nan());
        let mut s = OnlineStats::new();
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci_half_width(0.90), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: OnlineStats = all.iter().copied().collect();
        let mut a: OnlineStats = all[..37].iter().copied().collect();
        let b: OnlineStats = all[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), 3);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 3);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn t_quantiles_match_tables() {
        assert!((student_t_quantile(0.90, 1) - 6.314).abs() < 1e-9);
        assert!((student_t_quantile(0.95, 10) - 2.228).abs() < 1e-9);
        assert!((student_t_quantile(0.99, 30) - 2.750).abs() < 1e-9);
        // Large df approaches the normal quantile.
        assert!((student_t_quantile(0.90, 1_000_000) - 1.645).abs() < 0.01);
        // Interpolation is monotone between rows.
        let t13 = student_t_quantile(0.90, 13);
        assert!(t13 < student_t_quantile(0.90, 12));
        assert!(t13 > student_t_quantile(0.90, 15));
    }

    #[test]
    fn ci_half_width_shrinks_with_n() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        let mut rng = crate::SimRng::new(1);
        for i in 0..10_000 {
            let x = rng.unit();
            if i < 100 {
                small.push(x);
            }
            large.push(x);
        }
        assert!(large.ci_half_width(0.90) < small.ci_half_width(0.90));
    }

    #[test]
    fn ecdf_at_and_quantile() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.at(0.5), 0.0);
        assert_eq!(e.at(1.0), 0.25);
        assert_eq!(e.at(2.5), 0.5);
        assert_eq!(e.at(10.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert!((e.quantile(0.5) - 2.5).abs() < 1e-12);
        assert!((e.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ecdf_series_is_monotone() {
        let mut rng = crate::SimRng::new(2);
        let samples: Vec<f64> = (0..1000).map(|_| rng.unit() * 3.0).collect();
        let e = Ecdf::new(samples);
        let series = e.series(50);
        assert_eq!(series.len(), 50);
        for w in series.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((series.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }
}
