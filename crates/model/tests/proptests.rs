//! Property-based tests for the probabilistic model: posterior bounds,
//! monotonicity and polarity symmetry, EM invariants (ascent, parameter
//! domains, permutation stability), bit-equality with the per-entity
//! oracle, baseline consistency.

use proptest::prelude::*;
use surveyor_model::{
    decide, fit, posterior_positive, ConvergenceReason, Decision, EmConfig, EmFit, MajorityVote,
    ModelParams, ObservedCounts, OpinionModel, ScaledMajorityVote, SurveyorModel,
};

mod oracle;

fn params_strategy() -> impl Strategy<Value = ModelParams> {
    (0.5f64..1.0, 0.01f64..200.0, 0.01f64..200.0)
        .prop_map(|(pa, rp, rn)| ModelParams::new(pa, rp, rn))
}

fn counts_strategy() -> impl Strategy<Value = ObservedCounts> {
    (0u64..300, 0u64..300).prop_map(|(p, n)| ObservedCounts::new(p, n))
}

/// Entities drawing their pairs from a small pool with a Zipf-like skew:
/// most of the group shares the first few pairs, as in a mined world.
fn zipf_group() -> impl Strategy<Value = Vec<ObservedCounts>> {
    (
        prop::collection::vec((0u64..20, 0u64..8), 1..12),
        prop::collection::vec(0u32..1000, 1..400),
    )
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|u| {
                    let x = u as f64 / 1000.0;
                    pool[(x * x * x * pool.len() as f64) as usize].into()
                })
                .collect()
        })
}

/// The groups EM must survive: Zipf-duplicated, all-zero, one entity,
/// one polarity only, counts up to 10⁶, and unstructured pairs.
fn adversarial_group() -> impl Strategy<Value = Vec<ObservedCounts>> {
    prop_oneof![
        zipf_group(),
        (1usize..200).prop_map(|m| vec![ObservedCounts::zero(); m]),
        counts_strategy().prop_map(|c| vec![c]),
        (prop::collection::vec(0u64..50, 1..100), 0u8..2).prop_map(|(counts, side)| {
            counts
                .into_iter()
                .map(|c| match side {
                    0 => ObservedCounts::new(c, 0),
                    _ => ObservedCounts::new(0, c),
                })
                .collect()
        }),
        prop::collection::vec((0u64..=1_000_000, 0u64..=1_000_000), 1..64)
            .prop_map(|pairs| pairs.into_iter().map(ObservedCounts::from).collect()),
        prop::collection::vec(counts_strategy(), 1..64),
    ]
}

/// A group plus a permutation of it, and the permutation itself
/// (`shuffled[k] = group[order[k]]`).
fn shuffled_group() -> impl Strategy<Value = (Vec<ObservedCounts>, Vec<ObservedCounts>, Vec<usize>)>
{
    (
        adversarial_group(),
        prop::collection::vec(0u64..u64::MAX, 400),
    )
        .prop_map(|(group, keys)| {
            let mut order: Vec<usize> = (0..group.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let shuffled = order.iter().map(|&i| group[i]).collect();
            (group, shuffled, order)
        })
}

/// Per entity of `group`, the oracle's posterior under the fitted
/// parameters, as bits: what each decision's probability must be.
fn oracle_decisions(group: &[ObservedCounts], fit: &EmFit) -> Vec<u64> {
    group
        .iter()
        .map(|&c| oracle::posterior_positive(c, &fit.params).to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fit_is_bit_equal_to_the_per_entity_oracle((group, shuffled, _) in shuffled_group()) {
        let config = EmConfig::default();
        for counts in [&group, &shuffled] {
            let new = fit(counts, &config);
            let old = oracle::fit_per_entity(counts, &config);
            prop_assert_eq!(oracle::fit_bits(&new), oracle::fit_bits(&old));
            let decided: Vec<u64> = SurveyorModel::new()
                .decide_group(counts)
                .iter()
                .map(|d| d.probability.expect("Surveyor carries a probability").to_bits())
                .collect();
            prop_assert_eq!(decided, oracle_decisions(counts, &old));
        }
    }

    #[test]
    fn mixture_likelihood_never_falls_with_more_iterations(
        group in adversarial_group(),
        share in prop_oneof![Just(0.5), Just(0.25), Just(0.1)],
    ) {
        // EM with a closed-form M-step over a grid that holds the start's
        // pA is a generalized EM: no iteration may lower the likelihood
        // of the data (beyond rounding).
        let mut previous = f64::NEG_INFINITY;
        for max_iterations in 1..=12 {
            let config = EmConfig {
                max_iterations,
                restart_shares: vec![share],
                ..EmConfig::default()
            };
            let ll = fit(&group, &config).log_likelihood;
            prop_assert!(!ll.is_nan(), "NaN likelihood at {max_iterations} iterations");
            let slack = 1e-9 * previous.abs().max(1.0);
            prop_assert!(
                ll >= previous - slack,
                "likelihood fell from {previous} to {ll} at {max_iterations} iterations"
            );
            previous = ll;
        }
    }

    #[test]
    fn posterior_is_symmetric_under_polarity_swap(
        params in params_strategy(),
        counts in counts_strategy(),
    ) {
        // Swapping the polarity of every statement and the two rates swaps
        // the hypotheses: p becomes 1 - p.
        let swapped = ModelParams::new(params.p_agree, params.rate_neg, params.rate_pos);
        let p = posterior_positive(counts, &params);
        let q = posterior_positive(ObservedCounts::new(counts.negative, counts.positive), &swapped);
        prop_assert!((p + q - 1.0).abs() <= 1e-12, "p = {p}, swapped = {q}");
    }

    #[test]
    fn decisions_are_stable_under_entity_permutation((group, shuffled, order) in shuffled_group()) {
        // Reordering entities reorders the summation, so parameters may
        // move in the last ulps; a decision may flip only at a posterior
        // that close to ½.
        let model = SurveyorModel::new();
        let before = model.decide_group(&group);
        let after = model.decide_group(&shuffled);
        for (k, &i) in order.iter().enumerate() {
            let (a, b) = (before[i], after[k]);
            let near_half = [a, b]
                .iter()
                .any(|d| (d.probability.unwrap_or(0.5) - 0.5).abs() <= 1e-9);
            prop_assert!(
                a.decision == b.decision || near_half,
                "{:?}: {a:?} vs {b:?}", group[i]
            );
        }
    }

    #[test]
    fn posterior_is_a_probability(params in params_strategy(), counts in counts_strategy()) {
        let p = posterior_positive(counts, &params);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        prop_assert!(p.is_finite());
        let reference = oracle::posterior_positive(counts, &params);
        prop_assert_eq!(p.to_bits(), reference.to_bits());
    }

    #[test]
    fn posterior_monotone_in_positive_count(
        params in params_strategy(),
        c_neg in 0u64..50,
        c_pos in 0u64..100,
    ) {
        // Adding a positive statement never lowers the positive posterior
        // (λ++ >= λ+- because pA >= ½).
        let p1 = posterior_positive(ObservedCounts::new(c_pos, c_neg), &params);
        let p2 = posterior_positive(ObservedCounts::new(c_pos + 1, c_neg), &params);
        prop_assert!(p2 >= p1 - 1e-9, "p1={p1} p2={p2}");
    }

    #[test]
    fn posterior_antitone_in_negative_count(
        params in params_strategy(),
        c_pos in 0u64..50,
        c_neg in 0u64..100,
    ) {
        let p1 = posterior_positive(ObservedCounts::new(c_pos, c_neg), &params);
        let p2 = posterior_positive(ObservedCounts::new(c_pos, c_neg + 1), &params);
        prop_assert!(p2 <= p1 + 1e-9);
    }

    #[test]
    fn decide_matches_threshold(p in 0.0f64..1.0) {
        let d = decide(p);
        match d.decision {
            Decision::Positive => prop_assert!(p > 0.5),
            Decision::Negative => prop_assert!(p < 0.5),
            Decision::Unsolved => prop_assert!((p - 0.5).abs() <= 1e-12),
        }
        prop_assert_eq!(d.probability, Some(p));
    }

    #[test]
    fn em_fit_stays_in_bounds(counts in adversarial_group()) {
        let fit = fit(&counts, &EmConfig::default());
        prop_assert!((0.5..=1.0).contains(&fit.params.p_agree));
        prop_assert!(fit.params.rate_pos.is_finite() && fit.params.rate_pos >= 0.0);
        prop_assert!(fit.params.rate_neg.is_finite() && fit.params.rate_neg >= 0.0);
        prop_assert!(!fit.log_likelihood.is_nan());
        prop_assert!(fit.iterations >= 1);
        // The degenerate-stop iteration records no Q' value.
        let degenerate = usize::from(fit.converged == ConvergenceReason::Degenerate);
        prop_assert_eq!(fit.q_trace.len() + degenerate, fit.iterations);
    }

    #[test]
    fn em_is_deterministic(counts in prop::collection::vec(counts_strategy(), 1..32)) {
        let a = fit(&counts, &EmConfig::default());
        let b = fit(&counts, &EmConfig::default());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn majority_vote_agrees_with_sign(counts in counts_strategy()) {
        let d = MajorityVote.decide_group(&[counts])[0].decision;
        match counts.positive.cmp(&counts.negative) {
            std::cmp::Ordering::Greater => prop_assert_eq!(d, Decision::Positive),
            std::cmp::Ordering::Less => prop_assert_eq!(d, Decision::Negative),
            std::cmp::Ordering::Equal => prop_assert_eq!(d, Decision::Unsolved),
        }
    }

    #[test]
    fn scaled_majority_with_unit_scale_equals_majority(
        group in prop::collection::vec(counts_strategy(), 1..32),
    ) {
        let smv = ScaledMajorityVote::new(1.0).decide_group(&group);
        let mv = MajorityVote.decide_group(&group);
        for (a, b) in smv.iter().zip(&mv) {
            prop_assert_eq!(a.decision, b.decision);
        }
    }

    #[test]
    fn posterior_under_fitted_params_decides_every_entity(
        group in prop::collection::vec(counts_strategy(), 2..48),
    ) {
        // The pipeline's promise: a decision (possibly Unsolved only at an
        // exact tie) for every entity of a modeled combination.
        let fitted = fit(&group, &EmConfig::default());
        for c in &group {
            let p = posterior_positive(*c, &fitted.params);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
