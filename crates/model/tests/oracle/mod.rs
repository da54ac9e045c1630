//! The per-entity EM and posterior as they were before the distinct-pair
//! table, frozen as the bit-for-bit reference the product is checked
//! against: one `posterior_positive` (two `lambdas()`, four `ln`, one
//! `exp`) per entity per iteration, and the mixture likelihood summed per
//! entity. Shared by this crate's property tests and, through a `#[path]`
//! import, by its unit tests; each includer supplies the model types at
//! its root.

use super::{ConvergenceReason, EmConfig, EmFit, ModelParams, ObservedCounts};

fn ln_poisson_kernel(c: u64, lambda: f64) -> f64 {
    if lambda == 0.0 {
        if c == 0 {
            0.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        c as f64 * lambda.ln() - lambda
    }
}

fn ln_joint_positive(counts: ObservedCounts, params: &ModelParams) -> f64 {
    let l = params.lambdas();
    ln_poisson_kernel(counts.positive, l.pos_pos) + ln_poisson_kernel(counts.negative, l.neg_pos)
}

fn ln_joint_negative(counts: ObservedCounts, params: &ModelParams) -> f64 {
    let l = params.lambdas();
    ln_poisson_kernel(counts.positive, l.pos_neg) + ln_poisson_kernel(counts.negative, l.neg_neg)
}

/// `Pr(D = + | counts, params)`, one entity at a time.
pub fn posterior_positive(counts: ObservedCounts, params: &ModelParams) -> f64 {
    let a = ln_joint_positive(counts, params);
    let b = ln_joint_negative(counts, params);
    if a == f64::NEG_INFINITY && b == f64::NEG_INFINITY {
        return 0.5;
    }
    let d = b - a;
    if d > 0.0 {
        let e = (-d).exp();
        e / (1.0 + e)
    } else {
        1.0 / (1.0 + d.exp())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    g_pos_pos: f64,
    g_neg_pos: f64,
    g_pos_neg: f64,
    g_neg_neg: f64,
    g_pos: f64,
    g_neg: f64,
}

fn e_step_stats(counts: &[ObservedCounts], params: &ModelParams) -> Stats {
    let mut s = Stats::default();
    for c in counts {
        let r = posterior_positive(*c, params);
        s.g_pos_pos += c.positive as f64 * r;
        s.g_neg_pos += c.negative as f64 * r;
        s.g_pos_neg += c.positive as f64 * (1.0 - r);
        s.g_neg_neg += c.negative as f64 * (1.0 - r);
        s.g_pos += r;
        s.g_neg += 1.0 - r;
    }
    s
}

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

fn initial_guess(counts: &[ObservedCounts], share: f64) -> ModelParams {
    let m = counts.len().max(1) as f64;
    let mean_pos: f64 = counts.iter().map(|c| c.positive as f64).sum::<f64>() / m;
    let mean_neg: f64 = counts.iter().map(|c| c.negative as f64).sum::<f64>() / m;
    let pa0 = 0.8;
    let pos_factor = share * pa0 + (1.0 - share) * (1.0 - pa0);
    let neg_factor = (1.0 - share) * pa0 + share * (1.0 - pa0);
    ModelParams::new(
        pa0,
        (mean_pos / pos_factor.max(1e-6)).max(1e-3),
        (mean_neg / neg_factor.max(1e-6)).max(1e-3),
    )
}

/// The multi-restart fit: one EM run per restart share, best mixture
/// likelihood wins. (Named apart from the product's `fit`: the linter's
/// call graph resolves calls by name.)
pub fn fit_per_entity(counts: &[ObservedCounts], config: &EmConfig) -> EmFit {
    assert!(!counts.is_empty(), "EM needs at least one entity");
    let shares = if config.restart_shares.is_empty() {
        &[0.5][..]
    } else {
        &config.restart_shares[..]
    };
    let mut best: Option<(f64, EmFit)> = None;
    for &share in shares {
        let mut candidate = run_em(counts, config, initial_guess(counts, share));
        let ll = mixture_log_likelihood(counts, &candidate.params);
        candidate.log_likelihood = ll;
        if best.as_ref().is_none_or(|(b, _)| ll > *b) {
            best = Some((ll, candidate));
        }
    }
    best.expect("at least one restart").1
}

/// One EM run from `initial`, no restarts.
pub fn fit_warm_per_entity(
    counts: &[ObservedCounts],
    config: &EmConfig,
    initial: &ModelParams,
) -> EmFit {
    assert!(!counts.is_empty(), "EM needs at least one entity");
    let mut fit = run_em(counts, config, *initial);
    fit.log_likelihood = mixture_log_likelihood(counts, &fit.params);
    fit
}

fn run_em(counts: &[ObservedCounts], config: &EmConfig, start: ModelParams) -> EmFit {
    let mut params = start;
    let mut q_trace = Vec::new();
    let mut delta_trace = Vec::new();
    let mut iterations = 0;
    let mut converged = ConvergenceReason::MaxIterations;

    for _ in 0..config.max_iterations {
        iterations += 1;
        let stats = e_step_stats(counts, &params);

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
        log_likelihood: f64::NEG_INFINITY,
    }
}

/// Mixture log-likelihood, one entity at a time.
pub fn mixture_log_likelihood(counts: &[ObservedCounts], params: &ModelParams) -> f64 {
    counts
        .iter()
        .map(|&c| {
            let a = ln_joint_positive(c, params) - std::f64::consts::LN_2;
            let b = ln_joint_negative(c, params) - std::f64::consts::LN_2;
            let hi = a.max(b);
            if hi == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                hi + ((a - hi).exp() + (b - hi).exp()).ln()
            }
        })
        .sum()
}

/// Every bit of a fit, NaN-safe: parameters, iterations, reason, both
/// traces and the likelihood.
pub fn fit_bits(fit: &EmFit) -> Vec<u64> {
    let mut bits = vec![
        fit.params.p_agree.to_bits(),
        fit.params.rate_pos.to_bits(),
        fit.params.rate_neg.to_bits(),
        fit.iterations as u64,
        fit.converged.code() as u64,
        fit.log_likelihood.to_bits(),
        fit.q_trace.len() as u64,
    ];
    bits.extend(fit.q_trace.iter().map(|q| q.to_bits()));
    bits.push(fit.delta_trace.len() as u64);
    bits.extend(fit.delta_trace.iter().map(|d| d.to_bits()));
    bits
}
