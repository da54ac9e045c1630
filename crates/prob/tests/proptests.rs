//! Property-based tests for the probability substrate.

use proptest::prelude::*;
use surveyor_prob::stats::percentile_sorted;
use surveyor_prob::{ln_factorial, percentile, Poisson, Rng, Summary, Zipf};

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
    fn zipf_pmf_is_normalized(n in 1usize..500, s in 0.2f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (1..=n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_support(n in 1usize..200, s in 0.2f64..2.5, seed in 0u64..500) {
        let z = Zipf::new(n, s);
        let mut rng = Rng::new(seed);
        let k = z.sample(&mut rng);
        prop_assert!((1..=n).contains(&k));
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
