//! Property-based tests for the probability substrate.

use proptest::prelude::*;
use surveyor_prob::stats::percentile_sorted;
use surveyor_prob::{ln_factorial, percentile, Poisson, Rng, Summary};

proptest! {
    #[test]
    fn ln_factorial_is_monotone(n in 0u64..100_000) {
        prop_assert!(ln_factorial(n + 1) >= ln_factorial(n));
    }

    #[test]
    fn ln_factorial_recurrence(n in 1u64..10_000) {
        // ln((n)!) = ln((n-1)!) + ln(n), up to float tolerance.
        let lhs = ln_factorial(n);
        let rhs = ln_factorial(n - 1) + (n as f64).ln();
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn poisson_pmf_is_normalized(lambda in 0.01f64..50.0) {
        let p = Poisson::new(lambda);
        let total: f64 = (0..500).map(|k| p.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "lambda={lambda} total={total}");
    }

    #[test]
    fn poisson_mode_is_near_lambda(lambda in 1.0f64..40.0) {
        // The pmf peaks at floor(lambda) or floor(lambda)-ish.
        let p = Poisson::new(lambda);
        let argmax = (0..200).max_by(|&a, &b| {
            p.pmf(a).partial_cmp(&p.pmf(b)).unwrap()
        }).unwrap();
        prop_assert!((argmax as f64 - lambda).abs() <= 1.5);
    }

    #[test]
    fn poisson_samples_within_support(lambda in 0.0f64..200.0, seed in 0u64..1000) {
        let p = Poisson::new(lambda);
        let mut rng = Rng::new(seed);
        let x = p.sample(&mut rng);
        // Extremely loose tail bound: 10 sigma above the mean.
        prop_assert!((x as f64) < lambda + 10.0 * lambda.sqrt() + 30.0);
    }

    #[test]
    fn summary_merge_matches_sequential(
        left in prop::collection::vec(-1e3f64..1e3, 0..64),
        right in prop::collection::vec(-1e3f64..1e3, 0..64),
    ) {
        let mut merged = Summary::new();
        for &x in &left { merged.push(x); }
        let mut other = Summary::new();
        for &x in &right { other.push(x); }
        merged.merge(&other);

        let mut sequential = Summary::new();
        for &x in left.iter().chain(&right) { sequential.push(x); }

        prop_assert_eq!(merged.count(), sequential.count());
        if merged.count() > 0 {
            prop_assert!((merged.mean() - sequential.mean()).abs() < 1e-6);
            prop_assert!((merged.variance() - sequential.variance()).abs() < 1e-4);
        }
    }

    #[test]
    fn percentile_is_monotone_in_q(
        mut xs in prop::collection::vec(-1e3f64..1e3, 1..64),
        q1 in 0.0f64..100.0,
        q2 in 0.0f64..100.0,
    ) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(percentile_sorted(&xs, lo) <= percentile_sorted(&xs, hi) + 1e-9);
    }

    #[test]
    fn percentile_within_range(xs in prop::collection::vec(-1e3f64..1e3, 1..64), q in 0.0f64..100.0) {
        let p = percentile(&xs, q).unwrap();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p >= min - 1e-9 && p <= max + 1e-9);
    }
}

/// `Poisson::sample` as it stood before the zero-draw certificate, verbatim
/// but for `self.lambda` becoming a parameter: the oracle the sampler must
/// match draw for draw, so that every generated corpus stays byte-identical.
mod frozen {
    use surveyor_prob::{ln_factorial, Rng};

    pub fn sample(lambda: f64, rng: &mut Rng) -> u64 {
        if lambda == 0.0 {
            0
        } else if lambda < 30.0 {
            sample_knuth(lambda, rng)
        } else {
            sample_ptrs(lambda, rng)
        }
    }

    fn sample_knuth(lambda: f64, rng: &mut Rng) -> u64 {
        let limit = (-lambda).exp();
        let mut product = rng.unit();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= rng.unit();
        }
        count
    }

    fn sample_ptrs(lambda: f64, rng: &mut Rng) -> u64 {
        let lam = lambda;
        let log_lam = lam.ln();
        let b = 0.931 + 2.53 * lam.sqrt();
        let a = -0.059 + 0.024_83 * b;
        let inv_alpha = 1.123_9 + 1.132_8 / (b - 3.4);
        let v_r = 0.9277 - 3.6224 / (b - 2.0);
        loop {
            let u = rng.unit() - 0.5;
            let v = rng.unit();
            let us = 0.5 - u.abs();
            let k = ((2.0 * a / us + b) * u + lam + 0.43).floor();
            if us >= 0.07 && v <= v_r {
                return k as u64;
            }
            if k < 0.0 || (us < 0.013 && v > us) {
                continue;
            }
            let lhs = v.ln() + inv_alpha.ln() - (a / (us * us) + b).ln();
            let rhs = -lam + k * log_lam - ln_factorial(k as u64);
            if lhs <= rhs {
                return k as u64;
            }
        }
    }
}

/// Rates where the sampler's branches meet: zero, the smallest subnormal,
/// where `1 − λ` is closest to `e^{−λ}` (so a looser zero-draw bound would
/// show), around the bound's reach at 1, and around the PTRS switch at 30.
const EDGE_RATES: [f64; 14] = [
    0.0,
    5e-324,
    1e-300,
    1e-12,
    1e-7,
    0.003,
    0.02,
    0.5,
    1.0 - f64::EPSILON / 2.0,
    1.0,
    1.0 + f64::EPSILON,
    29.999_999,
    30.0,
    45.0,
];

proptest! {
    #[test]
    fn poisson_sampler_matches_the_frozen_one_draw_for_draw(
        lambda in prop_oneof![(0..EDGE_RATES.len()).prop_map(|i| EDGE_RATES[i]), 0.0f64..40.0],
        seed in 0u64..u64::MAX,
    ) {
        let p = Poisson::new(lambda);
        let (mut rng, mut oracle) = (Rng::new(seed), Rng::new(seed));
        for draw in 0..256 {
            prop_assert_eq!(
                p.sample(&mut rng),
                frozen::sample(lambda, &mut oracle),
                "lambda={} seed={} draw={}", lambda, seed, draw
            );
        }
        prop_assert_eq!(rng.next_u64(), oracle.next_u64(), "lambda={} seed={}", lambda, seed);
    }
}

/// A known-answer stream recorded before the zero-draw certificate: 16
/// samples from a fresh generator at seed 2015 for a rate on each path
/// (certificate, Knuth tail, Knuth, PTRS), then the generator's next word,
/// which pins how many uniforms the 16 samples drew.
#[test]
fn poisson_known_answer_stream_at_seed_2015() {
    for (lambda, expected, next) in [
        (0.003, [0; 16], 1_109_130_686_195_287_398),
        (
            0.7,
            [2, 0, 0, 0, 0, 1, 1, 1, 2, 0, 2, 1, 0, 1, 2, 2],
            7_093_543_130_156_578_812,
        ),
        (
            4.0,
            [5, 3, 5, 4, 1, 8, 5, 4, 3, 6, 6, 10, 5, 3, 4, 2],
            6_647_940_878_985_360_570,
        ),
        (
            55.0,
            [
                64, 63, 54, 41, 58, 47, 57, 40, 66, 69, 49, 54, 61, 61, 57, 61,
            ],
            4_437_021_638_753_599_304,
        ),
    ] {
        let p = Poisson::new(lambda);
        let mut rng = Rng::new(2015);
        let drawn: [u64; 16] = std::array::from_fn(|_| p.sample(&mut rng));
        assert_eq!(drawn, expected, "lambda={lambda}");
        assert_eq!(rng.next_u64(), next, "lambda={lambda}");
    }
}
