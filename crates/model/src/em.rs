//! Expectation-maximization parameter fitting (paper §6, Appendix C).
//!
//! Both steps have closed forms:
//!
//! - **E-step**: `r+_i = Pr(D_i = + | E_i, θ_{k-1})` via
//!   [`crate::inference::posterior_positive`].
//! - **M-step**: sufficient statistics
//!   `g++ = Σ c+_i r+_i`, `g-+ = Σ c-_i r+_i`, `g+- = Σ c+_i (1-r+_i)`,
//!   `g-- = Σ c-_i (1-r+_i)`, `g+ = Σ r+_i`, `g- = Σ (1-r+_i)`; then for a
//!   fixed grid of `pA` values the maximizing rates are
//!   `np+S = (g++ + g+-)/(g- + pA·g+ − pA·g-)` and
//!   `np-S = (g-+ + g--)/(g+ + pA·g- − pA·g+)`, and the grid point with
//!   the highest `Q'` wins ("we speed up computations by trying a fixed
//!   set of values for pA", §6).
//!
//! An entity enters EM only through its `(c+, c−)` pair, and a group's
//! pairs repeat almost completely, so a fit first sorts the group into a
//! [`CountTable`] of distinct pairs — once, shared by every restart. An
//! iteration then costs one posterior per *distinct pair* (one `exp`; the
//! four `ln λ` are taken once per iteration), m additions to accumulate
//! the six statistics per entity, in entity order, and the `|grid|`
//! M-step candidates. Accumulating per entity keeps the summation order,
//! and so every bit, of an E-step that evaluates each entity's posterior
//! itself; summing per pair with multiplicities would drop the m
//! additions but moves the last ulp. Nothing depends on the number of
//! extracted mentions — the property §7.1 credits for the 10-minute
//! Web-scale EM run.

use crate::counts::{CountTable, ObservedCounts};
use crate::inference::Posterior;
use crate::params::ModelParams;
use serde::{Deserialize, Serialize};

/// EM configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmConfig {
    /// Maximum number of iterations (`X` in Algorithm 2).
    pub max_iterations: usize,
    /// Fixed grid of agreement values tried in the M-step. Restricted to
    /// `pA >= 0.5`, which pins the labeling (swapping the roles of the two
    /// opinion classes is equivalent to `pA → 1-pA`, so the grid
    /// restriction breaks that symmetry).
    pub pa_grid: Vec<f64>,
    /// Convergence tolerance on the parameter vector; iteration stops
    /// early when no component moves more than this.
    pub tolerance: f64,
    /// Positive-share guesses used to seed independent EM starts; the
    /// start with the best final mixture likelihood wins. EM's likelihood
    /// surface has local optima when the two count classes overlap (low
    /// rates), and a share-diverse multi-start escapes them.
    pub restart_shares: Vec<f64>,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            pa_grid: (50..100).step_by(2).map(|p| p as f64 / 100.0).collect(),
            tolerance: 1e-9,
            restart_shares: vec![0.5, 0.25, 0.1],
        }
    }
}

/// Why an EM run stopped — the convergence telemetry surfaced per
/// (type, property) group in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConvergenceReason {
    /// No parameter component moved more than the configured tolerance
    /// (the early exit Algorithm 2 aims for).
    Tolerance,
    /// The iteration budget `X` ran out before the tolerance was met.
    MaxIterations,
    /// Degenerate evidence: no grid point produced a valid M-step, so
    /// the current parameters were kept and iteration stopped.
    Degenerate,
}

impl ConvergenceReason {
    /// Stable lowercase label used in serialized run reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Tolerance => "tolerance",
            Self::MaxIterations => "max_iterations",
            Self::Degenerate => "degenerate",
        }
    }

    /// Stable numeric code used by the binary snapshot format (section
    /// `MODL` of `FORMAT.md`). Codes are frozen — new reasons must take
    /// fresh numbers, never reuse these.
    pub fn code(&self) -> u8 {
        match self {
            Self::Tolerance => 0,
            Self::MaxIterations => 1,
            Self::Degenerate => 2,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Tolerance),
            1 => Some(Self::MaxIterations),
            2 => Some(Self::Degenerate),
            _ => None,
        }
    }
}

/// Result of an EM fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmFit {
    /// The fitted parameter vector `θ_X`.
    pub params: ModelParams,
    /// Iterations actually run (may stop early on convergence).
    pub iterations: usize,
    /// Expected complete-data log-likelihood `Q'` after the final M-step;
    /// useful for regression tests and the likelihood-monotonicity
    /// property test.
    pub q_trace: Vec<f64>,
    /// Largest parameter movement per iteration (parallel to `q_trace`
    /// except for the degenerate-stop case, where the final iteration
    /// records neither).
    pub delta_trace: Vec<f64>,
    /// Why the winning restart stopped iterating.
    pub converged: ConvergenceReason,
    /// Mixture log-likelihood of the returned parameters — the restart
    /// selection criterion, exposed so run reports need not recompute it.
    pub log_likelihood: f64,
}

/// Sufficient statistics of one E-step.
#[derive(Debug, Clone, Copy)]
struct Stats {
    g_pos_pos: f64,
    g_neg_pos: f64,
    g_pos_neg: f64,
    g_neg_neg: f64,
    g_pos: f64,
    g_neg: f64,
}

/// One distinct pair's share of the sufficient statistics, in [`Stats`]
/// field order: `[c+·r, c-·r, c+·(1-r), c-·(1-r), r, 1-r]`.
type PairTerms = [f64; 6];

/// The E-step: one posterior per distinct pair into `terms`, then the six
/// sums over entities in entity order — the same products added in the
/// same order as evaluating every entity's posterior on its own.
fn e_step_stats(table: &CountTable, params: &ModelParams, terms: &mut Vec<PairTerms>) -> Stats {
    let posterior = Posterior::new(params);
    terms.clear();
    terms.extend(table.pairs().iter().map(|&c| {
        let r = posterior.positive(c);
        let (pos, neg) = (c.positive as f64, c.negative as f64);
        [
            pos * r,
            neg * r,
            pos * (1.0 - r),
            neg * (1.0 - r),
            r,
            1.0 - r,
        ]
    }));
    let mut g = [0.0; 6];
    for &slot in table.slots() {
        for (sum, term) in g.iter_mut().zip(&terms[slot as usize]) {
            *sum += term;
        }
    }
    let [g_pos_pos, g_neg_pos, g_pos_neg, g_neg_neg, g_pos, g_neg] = g;
    Stats {
        g_pos_pos,
        g_neg_pos,
        g_pos_neg,
        g_neg_neg,
        g_pos,
        g_neg,
    }
}

/// `Q'(θ)` evaluated from sufficient statistics:
/// `g++·ln λ++ − g+·λ++ + g-+·ln λ-+ − g+·λ-+ + g+-·ln λ+- − g-·λ+- +
///  g--·ln λ-- − g-·λ--` (the Appendix C form, with expected counts in
/// place of per-entity terms).
fn q_prime(stats: &Stats, params: &ModelParams) -> f64 {
    let l = params.lambdas();
    let term = |g_count: f64, g_mass: f64, lambda: f64| -> f64 {
        if lambda == 0.0 {
            if g_count > 0.0 {
                f64::NEG_INFINITY
            } else {
                0.0
            }
        } else {
            g_count * lambda.ln() - g_mass * lambda
        }
    };
    term(stats.g_pos_pos, stats.g_pos, l.pos_pos)
        + term(stats.g_neg_pos, stats.g_pos, l.neg_pos)
        + term(stats.g_pos_neg, stats.g_neg, l.pos_neg)
        + term(stats.g_neg_neg, stats.g_neg, l.neg_neg)
}

/// Closed-form M-step for one grid value of `pA`; `None` when a
/// denominator is non-positive (that grid point cannot maximize).
fn m_step_rates(stats: &Stats, pa: f64) -> Option<(f64, f64)> {
    let denom_pos = stats.g_neg + pa * stats.g_pos - pa * stats.g_neg;
    let denom_neg = stats.g_pos + pa * stats.g_neg - pa * stats.g_pos;
    if denom_pos <= 0.0 || denom_neg <= 0.0 {
        return None;
    }
    let rate_pos = (stats.g_pos_pos + stats.g_pos_neg) / denom_pos;
    let rate_neg = (stats.g_neg_pos + stats.g_neg_neg) / denom_neg;
    if !rate_pos.is_finite() || !rate_neg.is_finite() {
        return None;
    }
    Some((rate_pos, rate_neg))
}

/// Moment-matched initial guess assuming a positive share of `share`:
/// `E[c+] = share·pA·np+S + (1-share)·(1-pA)·np+S` (and symmetrically for
/// negatives), solved for the rates at a provisional `pA = 0.8`.
fn initial_guess(table: &CountTable, share: f64) -> ModelParams {
    let m = table.entities().max(1) as f64;
    let pairs = table.pairs();
    // Summed per entity, in entity order, like every other statistic.
    let mean = |count: fn(&ObservedCounts) -> u64| {
        let per_entity = table
            .slots()
            .iter()
            .map(|&s| count(&pairs[s as usize]) as f64);
        per_entity.sum::<f64>() / m
    };
    let (mean_pos, mean_neg) = (mean(|c| c.positive), mean(|c| c.negative));
    let pa0 = 0.8;
    let pos_factor = share * pa0 + (1.0 - share) * (1.0 - pa0);
    let neg_factor = (1.0 - share) * pa0 + share * (1.0 - pa0);
    ModelParams::new(
        pa0,
        (mean_pos / pos_factor.max(1e-6)).max(1e-3),
        (mean_neg / neg_factor.max(1e-6)).max(1e-3),
    )
}

/// Fits the model to the evidence of one (type, property) combination.
///
/// `counts` must contain one tuple per entity of the type — including the
/// all-zero tuples of never-mentioned entities, which carry real signal
/// (§2). Runs one EM per configured restart share and returns the fit with
/// the best mixture likelihood. Shorthand for [`fit_table`] on the
/// group's [`CountTable`] with no warm start.
///
/// # Panics
/// Panics if `counts` is empty or the grid is empty/out of range.
pub fn fit(counts: &[ObservedCounts], config: &EmConfig) -> EmFit {
    fit_table(&CountTable::new(counts), config, None)
}

/// Fits the model with a single EM run warm-started from an explicit
/// parameter vector — typically the previous snapshot's fit for the same
/// (type, property) group.
///
/// Unlike [`fit`], no restarts are run: when the evidence moved only a
/// little, the previous optimum is already in the right basin and one
/// run from it converges in a handful of iterations. The telemetry
/// (iteration count, traces) therefore differs from a cold [`fit`] even
/// when both land on the same optimum — callers that need byte-identical
/// output to a cold run must use [`fit`] and reserve `fit_warm` for
/// speed-over-reproducibility paths.
///
/// # Panics
/// Panics if `counts` is empty or the grid is empty/out of range.
pub fn fit_warm(counts: &[ObservedCounts], config: &EmConfig, initial: &ModelParams) -> EmFit {
    fit_table(&CountTable::new(counts), config, Some(initial))
}

/// The one EM entry point: fits a group given as its [`CountTable`]. Cold
/// (`warm = None`) it runs one EM per restart share and keeps the best
/// mixture likelihood ([`fit`]); warm it runs once from the given
/// parameters ([`fit_warm`]). Every run shares the table and one
/// per-pair scratch buffer; decide the group from the same table with
/// [`CountTable::decisions`].
///
/// # Panics
/// Panics if the table has no entity or the grid is empty/out of range.
pub fn fit_table(table: &CountTable, config: &EmConfig, warm: Option<&ModelParams>) -> EmFit {
    assert!(table.entities() > 0, "EM needs at least one entity");
    assert!(!config.pa_grid.is_empty(), "EM needs a non-empty pA grid");
    for &pa in &config.pa_grid {
        assert!(
            (0.5..=1.0).contains(&pa),
            "pA grid values must lie in [0.5, 1], got {pa}"
        );
    }
    let mut terms = Vec::with_capacity(table.distinct_pairs());
    let mut run = |start: ModelParams| {
        let mut fit = run_em(table, config, start, &mut terms);
        fit.log_likelihood = mixture_log_likelihood(table, &fit.params);
        fit
    };
    if let Some(initial) = warm {
        return run(*initial);
    }
    let shares = if config.restart_shares.is_empty() {
        &[0.5][..]
    } else {
        &config.restart_shares[..]
    };
    let mut best: Option<EmFit> = None;
    for &share in shares {
        let candidate = run(initial_guess(table, share));
        if best
            .as_ref()
            .is_none_or(|b| candidate.log_likelihood > b.log_likelihood)
        {
            best = Some(candidate);
        }
    }
    best.expect("at least one restart") // lint:allow(no-panic-in-lib): shares is never empty (defaulted above), so the loop always sets best
}

/// The EM iteration loop from an explicit starting point; `terms` is the
/// E-step's per-pair scratch.
fn run_em(
    table: &CountTable,
    config: &EmConfig,
    start: ModelParams,
    terms: &mut Vec<PairTerms>,
) -> EmFit {
    let mut params = start;
    let mut q_trace = Vec::new();
    let mut delta_trace = Vec::new();
    let mut iterations = 0;
    let mut converged = ConvergenceReason::MaxIterations;

    for _ in 0..config.max_iterations {
        iterations += 1;
        let stats = e_step_stats(table, &params, terms);

        let mut best: Option<(f64, ModelParams)> = None;
        for &pa in &config.pa_grid {
            let Some((rate_pos, rate_neg)) = m_step_rates(&stats, pa) else {
                continue;
            };
            let candidate = ModelParams::new(pa, rate_pos, rate_neg);
            let q = q_prime(&stats, &candidate);
            if best.as_ref().is_none_or(|(bq, _)| q > *bq) {
                best = Some((q, candidate));
            }
        }
        let Some((q, next)) = best else {
            // Degenerate evidence (e.g. no statements at all): keep the
            // current parameters and stop.
            converged = ConvergenceReason::Degenerate;
            break;
        };
        q_trace.push(q);

        let delta = (next.p_agree - params.p_agree)
            .abs()
            .max((next.rate_pos - params.rate_pos).abs())
            .max((next.rate_neg - params.rate_neg).abs());
        delta_trace.push(delta);
        params = next;
        if delta < config.tolerance {
            converged = ConvergenceReason::Tolerance;
            break;
        }
    }

    EmFit {
        params,
        iterations,
        q_trace,
        delta_trace,
        converged,
        // Overwritten by `fit_table` with the mixture likelihood.
        log_likelihood: f64::NEG_INFINITY,
    }
}

/// Log-likelihood of a group's counts under the two-component mixture
/// with uniform prior — the quantity EM ascends and the restart
/// selection criterion. One term per distinct pair, summed per entity in
/// entity order.
pub fn mixture_log_likelihood(table: &CountTable, params: &ModelParams) -> f64 {
    let posterior = Posterior::new(params);
    let per_pair = table
        .pairs()
        .iter()
        .map(|&c| {
            let a = posterior.ln_joint_positive(c) - std::f64::consts::LN_2;
            let b = posterior.ln_joint_negative(c) - std::f64::consts::LN_2;
            // log(exp(a) + exp(b)) stably; subtract the shared log c!
            // constant, which does not affect comparisons between θ.
            let hi = a.max(b);
            if hi == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                hi + ((a - hi).exp() + (b - hi).exp()).ln()
            }
        })
        .collect();
    table.per_entity(per_pair).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::posterior_positive;
    use crate::oracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use surveyor_prob::Poisson;

    /// Samples counts for `m` entities from the generative model.
    fn sample_counts(
        truth: &ModelParams,
        positive_fraction: f64,
        m: usize,
        seed: u64,
    ) -> (Vec<ObservedCounts>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = truth.lambdas();
        let mut counts = Vec::with_capacity(m);
        let mut labels = Vec::with_capacity(m);
        for i in 0..m {
            let positive = (i as f64) < positive_fraction * m as f64;
            let (lp, ln) = if positive {
                (l.pos_pos, l.neg_pos)
            } else {
                (l.pos_neg, l.neg_neg)
            };
            counts.push(ObservedCounts::new(
                Poisson::new(lp).sample(&mut rng),
                Poisson::new(ln).sample(&mut rng),
            ));
            labels.push(positive);
        }
        (counts, labels)
    }

    #[test]
    fn convergence_codes_round_trip() {
        for reason in [
            ConvergenceReason::Tolerance,
            ConvergenceReason::MaxIterations,
            ConvergenceReason::Degenerate,
        ] {
            assert_eq!(ConvergenceReason::from_code(reason.code()), Some(reason));
        }
        assert_eq!(ConvergenceReason::from_code(3), None);
        assert_eq!(ConvergenceReason::from_code(255), None);
    }

    #[test]
    fn recovers_parameters_of_example3_style_model() {
        let truth = ModelParams::new(0.9, 100.0, 5.0);
        let (counts, _) = sample_counts(&truth, 0.4, 600, 11);
        let fit = fit(&counts, &EmConfig::default());
        assert!(
            (fit.params.p_agree - 0.9).abs() <= 0.05,
            "pA={}",
            fit.params.p_agree
        );
        assert!(
            (fit.params.rate_pos - 100.0).abs() < 10.0,
            "np+S={}",
            fit.params.rate_pos
        );
        assert!(
            (fit.params.rate_neg - 5.0).abs() < 1.5,
            "np-S={}",
            fit.params.rate_neg
        );
    }

    #[test]
    fn posterior_classifies_planted_labels() {
        let truth = ModelParams::new(0.85, 60.0, 8.0);
        let (counts, labels) = sample_counts(&truth, 0.5, 400, 23);
        let fit = fit(&counts, &EmConfig::default());
        let mut correct = 0;
        for (c, &label) in counts.iter().zip(&labels) {
            let p = posterior_positive(*c, &fit.params);
            if (p > 0.5) == label {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / labels.len() as f64;
        assert!(accuracy > 0.95, "accuracy = {accuracy}");
    }

    #[test]
    fn q_trace_is_monotone_nondecreasing() {
        let truth = ModelParams::new(0.9, 40.0, 4.0);
        let (counts, _) = sample_counts(&truth, 0.3, 300, 7);
        let fit = fit(&counts, &EmConfig::default());
        for w in fit.q_trace.windows(2) {
            // Q' is re-evaluated under new stats each iteration, so exact
            // monotonicity holds for the mixture likelihood; Q' itself may
            // fluctuate within tolerance. Accept tiny decreases.
            assert!(
                w[1] >= w[0] - 1e-6 * w[0].abs().max(1.0),
                "trace {:?}",
                fit.q_trace
            );
        }
    }

    #[test]
    fn mixture_likelihood_improves_over_initial_guess() {
        let truth = ModelParams::new(0.9, 80.0, 6.0);
        let (counts, _) = sample_counts(&truth, 0.4, 500, 31);
        let table = CountTable::new(&counts);
        let initial = initial_guess(&table, 0.5);
        let fit = fit(&counts, &EmConfig::default());
        let before = mixture_log_likelihood(&table, &initial);
        let after = mixture_log_likelihood(&table, &fit.params);
        assert!(after >= before, "before={before} after={after}");
    }

    #[test]
    fn convergence_telemetry_is_recorded() {
        let truth = ModelParams::new(0.9, 80.0, 6.0);
        let (counts, _) = sample_counts(&truth, 0.4, 500, 31);
        let fit = fit(&counts, &EmConfig::default());
        // A well-separated sample converges on tolerance well before the
        // iteration budget.
        assert_eq!(fit.converged, ConvergenceReason::Tolerance);
        assert_eq!(fit.delta_trace.len(), fit.iterations);
        assert!(*fit.delta_trace.last().unwrap() < EmConfig::default().tolerance);
        assert!(fit.log_likelihood.is_finite());
        assert_eq!(
            fit.log_likelihood,
            mixture_log_likelihood(&CountTable::new(&counts), &fit.params)
        );

        // An exhausted budget reports max_iterations.
        let strict = EmConfig {
            max_iterations: 1,
            tolerance: 0.0,
            restart_shares: vec![0.5],
            ..EmConfig::default()
        };
        let fit = super::fit(&counts, &strict);
        assert_eq!(fit.converged, ConvergenceReason::MaxIterations);
        assert_eq!(fit.converged.as_str(), "max_iterations");
    }

    #[test]
    fn warm_start_from_the_cold_optimum_converges_immediately() {
        let truth = ModelParams::new(0.9, 80.0, 6.0);
        let (counts, _) = sample_counts(&truth, 0.4, 500, 31);
        let cold = fit(&counts, &EmConfig::default());
        let warm = fit_warm(&counts, &EmConfig::default(), &cold.params);
        // Restarting EM at a converged optimum must stay there, fast.
        assert!(warm.iterations <= 2, "iterations = {}", warm.iterations);
        assert_eq!(warm.converged, ConvergenceReason::Tolerance);
        assert!((warm.params.p_agree - cold.params.p_agree).abs() < 1e-6);
        assert!((warm.params.rate_pos - cold.params.rate_pos).abs() < 1e-3);
        assert_eq!(
            warm.log_likelihood,
            mixture_log_likelihood(&CountTable::new(&counts), &warm.params)
        );
    }

    #[test]
    fn warm_start_reaches_the_cold_likelihood_on_perturbed_counts() {
        let truth = ModelParams::new(0.9, 60.0, 5.0);
        let (mut counts, _) = sample_counts(&truth, 0.4, 400, 17);
        let cold_before = fit(&counts, &EmConfig::default());
        // A small delta: a few entities gain a handful of statements.
        for c in counts.iter_mut().take(10) {
            *c = ObservedCounts::new(c.positive + 2, c.negative);
        }
        let cold_after = fit(&counts, &EmConfig::default());
        let warm = fit_warm(&counts, &EmConfig::default(), &cold_before.params);
        // The warm run lands within noise of the cold optimum...
        assert!(
            (warm.log_likelihood - cold_after.log_likelihood).abs()
                < 1e-6 * cold_after.log_likelihood.abs(),
            "warm ll = {}, cold ll = {}",
            warm.log_likelihood,
            cold_after.log_likelihood
        );
        // ...in fewer iterations than the cheapest cold restart spends.
        assert!(warm.iterations <= cold_after.iterations);
    }

    #[test]
    #[should_panic(expected = "at least one entity")]
    fn warm_start_with_empty_counts_panics() {
        let _ = fit_warm(&[], &EmConfig::default(), &ModelParams::new(0.9, 1.0, 1.0));
    }

    #[test]
    fn fits_are_bit_equal_to_the_per_entity_oracle() {
        let config = EmConfig::default();
        for (truth, share, m, seed) in [
            (ModelParams::new(0.9, 100.0, 5.0), 0.4, 600, 11),
            (ModelParams::new(0.85, 60.0, 8.0), 0.5, 400, 23),
            (ModelParams::new(0.95, 50.0, 0.5), 0.1, 100, 3),
            (ModelParams::new(0.8, 0.6, 0.2), 0.2, 900, 5),
        ] {
            let (counts, _) = sample_counts(&truth, share, m, seed);
            let cold = fit(&counts, &config);
            assert_eq!(
                oracle::fit_bits(&cold),
                oracle::fit_bits(&oracle::fit_per_entity(&counts, &config))
            );
            let warm = fit_warm(&counts, &config, &truth);
            assert_eq!(
                oracle::fit_bits(&warm),
                oracle::fit_bits(&oracle::fit_warm_per_entity(&counts, &config, &truth))
            );
            for c in &counts {
                assert_eq!(
                    posterior_positive(*c, &cold.params).to_bits(),
                    oracle::posterior_positive(*c, &cold.params).to_bits()
                );
            }
        }
    }

    #[test]
    fn all_zero_counts_terminate_gracefully() {
        let counts = vec![ObservedCounts::zero(); 50];
        let fit = fit(&counts, &EmConfig::default());
        assert!(fit.params.rate_pos >= 0.0 && fit.params.rate_neg >= 0.0);
        assert!(fit.iterations <= EmConfig::default().max_iterations);
    }

    #[test]
    fn single_entity_does_not_crash() {
        let fit = fit(&[ObservedCounts::new(5, 1)], &EmConfig::default());
        assert!(fit.params.p_agree >= 0.5);
    }

    #[test]
    fn occurrence_bias_is_learned_from_unmentioned_entities() {
        // 10 chatty positive entities, 90 silent negative ones: the model
        // must learn λ++ large so zero-count entities classify negative.
        let truth = ModelParams::new(0.95, 50.0, 0.5);
        let (counts, _) = sample_counts(&truth, 0.1, 100, 3);
        let fit = fit(&counts, &EmConfig::default());
        let p_zero = posterior_positive(ObservedCounts::zero(), &fit.params);
        assert!(p_zero < 0.01, "p(zero)={p_zero}");
    }

    #[test]
    fn polarity_bias_is_learned() {
        // Negative statements are rare even for negative-dominant entities
        // (np-S small): a (2, 2) tie must NOT be read as 50/50.
        let truth = ModelParams::new(0.9, 30.0, 3.0);
        let (counts, _) = sample_counts(&truth, 0.5, 400, 19);
        let fit = fit(&counts, &EmConfig::default());
        // 2 negative statements are a lot when np-S ~ 3: lean negative.
        let p = posterior_positive(ObservedCounts::new(2, 2), &fit.params);
        assert!(p < 0.5, "p={p}");
    }

    #[test]
    #[should_panic(expected = "at least one entity")]
    fn empty_counts_panics() {
        let _ = fit(&[], &EmConfig::default());
    }

    #[test]
    #[should_panic(expected = "pA grid")]
    fn out_of_range_grid_panics() {
        let config = EmConfig {
            pa_grid: vec![0.3],
            ..EmConfig::default()
        };
        let _ = fit(&[ObservedCounts::zero()], &config);
    }
}
