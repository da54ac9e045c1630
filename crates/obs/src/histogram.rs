//! Value histograms on fixed log-scale buckets.

use serde::Serialize;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A bucket is 1/64 of its power of two wide, so its midpoint lies within
/// 1/128 (0.8 %) of every value in it.
const SUB_BITS: u32 = 6;
/// The smallest power of two with buckets: 2^-32, a quarter nanosecond
/// when the values are seconds.
const MIN_EXP: i32 = -32;
/// Powers of two with buckets, up to 2^32 (4.3·10⁹).
const OCTAVES: usize = 64;
/// One slot below the buckets, the buckets, one slot above them.
const SLOTS: usize = (OCTAVES << SUB_BITS) + 2;

/// A recording histogram of non-negative values, in constant memory
/// however many it records: count, sum and extrema are kept exactly, and
/// every observation in `[2^-32, 2^32)` lands in one of 4,096 log-scale
/// buckets. A percentile is its bucket's midpoint, clamped to the
/// extrema: within 0.8 % of the nearest-rank value, and the extremum
/// itself at the first and last rank. Values below the range (zero among
/// them) share one bucket read as 0, values above it one read as the
/// maximum.
#[derive(Debug)]
pub struct Histogram {
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Observations per slot.
    slots: Box<[u64]>,
}

/// The slot `value` is counted in.
fn slot(value: f64) -> usize {
    if value.is_nan() || value <= 0.0 {
        return 0;
    }
    let bits = value.to_bits();
    let octave = ((bits >> 52) & 0x7ff) as i32 - 1023 - MIN_EXP;
    if octave < 0 {
        return 0;
    }
    if octave as usize >= OCTAVES {
        return SLOTS - 1;
    }
    let sub = (bits >> (52 - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
    1 + (((octave as usize) << SUB_BITS) | sub)
}

/// The midpoint of the bucket in slot `slot`, strictly between the ends.
fn midpoint(slot: usize) -> f64 {
    let bucket = slot - 1;
    let (octave, sub) = (bucket >> SUB_BITS, bucket & ((1 << SUB_BITS) - 1));
    let base = 2f64.powi(octave as i32 + MIN_EXP);
    base * (1.0 + (sub as f64 + 0.5) / f64::from(1u32 << SUB_BITS))
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(State {
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                slots: vec![0; SLOTS].into_boxed_slice(),
            }),
        }
    }

    /// The state, locked. Every update leaves it whole, so a lock
    /// poisoned by a panicking holder is taken as it is.
    #[expect(
        clippy::disallowed_methods,
        reason = "the histogram's one lock, held for one bounded update and never nested"
    )]
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let mut state = self.state();
        state.count += 1;
        state.sum += value;
        state.min = state.min.min(value);
        state.max = state.max.max(value);
        state.slots[slot(value)] += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.state().count
    }

    /// The `q`-quantile (`0 < q <= 1`): the bucket of the `ceil(q·n)`-th
    /// smallest observation, read as its midpoint clamped to the
    /// extrema. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let state = self.state();
        (state.count > 0).then(|| state.percentile(q))
    }

    /// A serializable summary (count, extrema, mean, p50/p90/p99).
    pub fn summary(&self) -> HistogramSummary {
        let state = self.state();
        if state.count == 0 {
            return HistogramSummary::default();
        }
        HistogramSummary {
            count: state.count,
            min: state.min,
            max: state.max,
            mean: state.sum / state.count as f64,
            p50: state.percentile(0.50),
            p90: state.percentile(0.90),
            p99: state.percentile(0.99),
        }
    }
}

impl State {
    /// [`Histogram::percentile`] of a state holding at least one value.
    fn percentile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0;
        let at = (self.slots.iter())
            .position(|&n| {
                seen += n;
                seen >= rank
            })
            .unwrap_or(SLOTS - 1);
        let estimate = match at {
            0 => 0.0,
            at if at == SLOTS - 1 => self.max,
            at => midpoint(at),
        };
        estimate.clamp(self.min, self.max)
    }
}

/// Point-in-time digest of a [`Histogram`], as embedded in run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (within 0.8 % of the nearest-rank value).
    pub p50: f64,
    /// 90th percentile (within 0.8 % of the nearest-rank value).
    pub p90: f64,
    /// 99th percentile (within 0.8 % of the nearest-rank value).
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The nearest-rank `q`-quantile of `values`: the `ceil(q·n)`-th
    /// smallest, as the histogram kept every observation to compute it.
    /// The oracle the buckets are held to.
    fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted.get(rank - 1).copied()
    }

    /// Whether `estimate` is within 1 % of `exact` (equal when it is 0).
    fn within_one_percent(estimate: f64, exact: f64) -> bool {
        (estimate - exact).abs() <= 0.01 * exact.abs()
    }

    #[test]
    fn empty_histogram_has_empty_summary() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let h = Histogram::new();
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        for &v in &values {
            h.observe(v);
        }
        for (q, exact) in [(0.50, 50.0), (0.90, 90.0), (0.99, 99.0), (1.0, 100.0)] {
            assert_eq!(nearest_rank(&values, q), Some(exact));
            let estimate = h.percentile(q).unwrap();
            assert!(within_one_percent(estimate, exact), "p{q}: {estimate}");
        }
        // Tiny quantiles clamp to the smallest observation, and the
        // extremes read as the extrema.
        assert_eq!(h.percentile(0.001), Some(1.0));
        assert_eq!(h.percentile(1.0), Some(100.0));
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (100, 1.0, 100.0));
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_value_is_every_percentile() {
        let h = Histogram::new();
        h.observe(7.0);
        assert_eq!(h.percentile(0.5), Some(7.0));
        assert_eq!(h.percentile(0.99), Some(7.0));
        let s = h.summary();
        assert_eq!((s.p50, s.p90, s.p99), (7.0, 7.0, 7.0));
    }

    #[test]
    fn zeros_and_values_past_the_range_read_as_the_extrema() {
        let h = Histogram::new();
        for v in [0.0, 0.0, 0.0, 1e-3, 1e12] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.5), Some(0.0));
        assert_eq!(h.percentile(1.0), Some(1e12));
        assert!(within_one_percent(h.percentile(0.8).unwrap(), 1e-3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Latencies in seconds (log-uniform from 100 ns to 10 s) or
        /// counts (integers from 0): every summarised percentile within
        /// 1 % of the nearest-rank value, count, extrema exact, mean as
        /// the sum says.
        #[test]
        fn percentiles_are_within_one_percent_of_nearest_rank(
            exponents in prop::collection::vec(-7.0f64..1.0, 1..400),
            counts in prop::collection::vec(0u32..2_000, 0..400),
            as_counts in prop::bool::ANY,
        ) {
            let values: Vec<f64> = if as_counts && !counts.is_empty() {
                counts.iter().map(|&c| f64::from(c)).collect()
            } else {
                exponents.iter().map(|&e| 10f64.powf(e)).collect()
            };
            let h = Histogram::new();
            for &v in &values {
                h.observe(v);
            }
            let s = h.summary();
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.min, nearest_rank(&values, 0.0).unwrap());
            prop_assert_eq!(s.max, nearest_rank(&values, 1.0).unwrap());
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert!((s.mean - mean).abs() <= 1e-9 * mean.abs());
            for (q, estimate) in [(0.50, s.p50), (0.90, s.p90), (0.99, s.p99)] {
                let exact = nearest_rank(&values, q).unwrap();
                prop_assert!(within_one_percent(estimate, exact), "p{}: {} vs {}", q, estimate, exact);
            }
        }
    }
}
