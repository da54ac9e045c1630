//! Descriptive statistics used by the evaluation harness.
//!
//! Paper Figure 9 reports percentile curves of extraction counts; Figures 3
//! and 13 are read as correlation between decided polarity and an objective
//! attribute. This module supplies percentiles, Pearson/Spearman correlation,
//! and a Welford online summary.

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
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

    /// Sample mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Smallest observation (`inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (parallel-reduction friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let total = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / total as f64;
        let m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / total as f64;
        self.n = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The `q`-th percentile (`0 <= q <= 100`) of `values` using linear
/// interpolation between closest ranks (the "exclusive" variant matching
/// what the paper's percentile plots convey).
///
/// Returns `None` for an empty slice. The input need not be sorted.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(percentile_sorted(&sorted, q))
}

/// Percentile of an already-sorted slice, returning `0.0` for an empty
/// slice (the natural reading for count statistics over an empty set).
pub fn percentile_sorted_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile_sorted(sorted, q)
    }
}

/// Percentile of an already-sorted slice (ascending). Panics on empty input.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `None` when fewer than two points or either sample is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal lengths");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Fractional ranks (average rank for ties), 1-based.
fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Average the ranks i..=j (1-based) across the tie group.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson on fractional ranks).
///
/// Robust to the monotone-but-nonlinear relation between e.g. population
/// and the posterior probability of `big`; used to score Fig. 3(d)/13.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "spearman requires equal lengths");
    if xs.len() < 2 {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.push(3.0);
        let b = Summary::new();
        let mut c = a;
        c.merge(&b);
        assert_eq!(c.count(), 1);
        let mut d = Summary::new();
        d.merge(&a);
        assert_eq!(d.count(), 1);
        assert_eq!(d.mean(), 3.0);
    }

    #[test]
    fn percentile_basics() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(15.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 50.0), Some(35.0));
        // Interpolated: 25th falls between 20 and 35.
        let p25 = percentile(&xs, 25.0).unwrap();
        assert!((p25 - 20.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [50.0, 15.0, 40.0, 20.0, 35.0];
        assert_eq!(percentile(&xs, 50.0), Some(35.0));
    }

    #[test]
    fn percentile_empty_and_single() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let inv = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &inv).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_sample_is_none() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(pearson(&[0.5], &[0.1]), None);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let xs: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_over_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }
}
