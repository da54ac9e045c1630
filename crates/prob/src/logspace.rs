//! Numerically stable log-domain arithmetic.
//!
//! The Surveyor posterior `Pr(D_i | C+_i, C-_i)` multiplies Poisson
//! likelihoods whose linear-domain values underflow for realistic counts
//! (hundreds of statements). All model math therefore runs in the log
//! domain, built on the primitives in this module.

/// Natural log of `2 * pi`, used by the Stirling expansion.
const LN_TWO_PI: f64 = 1.837_877_066_409_345_3;

/// `ln(Gamma(x))` for `x > 0`, via the Lanczos approximation (g = 7, n = 9).
///
/// Accurate to roughly 1e-13 relative error over the range used by the
/// workspace (factorials of statement counts). Panics in debug builds on
/// non-positive input; returns `f64::INFINITY` for `x == 0` in release
/// builds, matching the pole of the Gamma function.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x >= 0.0, "ln_gamma requires non-negative input, got {x}");
    if x == 0.0 {
        return f64::INFINITY;
    }
    // Lanczos coefficients for g = 7.
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Gamma(x) * Gamma(1 - x) = pi / sin(pi x).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i as f64) + 1.0);
    }
    let t = x + 7.5;
    0.5 * LN_TWO_PI + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln(n!)`, exact-table for small `n`, `ln_gamma` beyond.
pub fn ln_factorial(n: u64) -> f64 {
    // Exact values for n <= 20 avoid both table-build cost and rounding.
    const SMALL: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5_040.0,
        40_320.0,
        362_880.0,
        3_628_800.0,
        39_916_800.0,
        479_001_600.0,
        6_227_020_800.0,
        87_178_291_200.0,
        1_307_674_368_000.0,
        20_922_789_888_000.0,
        355_687_428_096_000.0,
        6_402_373_705_728_000.0,
        121_645_100_408_832_000.0,
        2_432_902_008_176_640_000.0,
    ];
    if n <= 20 {
        SMALL[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Gamma(1) = 1, Gamma(2) = 1, Gamma(5) = 24, Gamma(0.5) = sqrt(pi).
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), 24.0_f64.ln(), 1e-12));
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Gamma(1.5) = sqrt(pi)/2.
        let expected = (std::f64::consts::PI.sqrt() / 2.0).ln();
        assert!(close(ln_gamma(1.5), expected, 1e-12));
    }

    #[test]
    fn ln_factorial_small_exact() {
        for n in 0..=20u64 {
            let exact: f64 = (1..=n).map(|k| k as f64).product::<f64>().max(1.0);
            assert!(close(ln_factorial(n), exact.ln(), 1e-12), "n={n}");
        }
    }

    #[test]
    fn ln_factorial_continuous_at_table_boundary() {
        // ln(21!) via table-free path must match ln(20!) + ln(21).
        let via_gamma = ln_factorial(21);
        let via_table = ln_factorial(20) + 21.0_f64.ln();
        assert!(close(via_gamma, via_table, 1e-12));
    }

    #[test]
    fn ln_factorial_large_is_finite_and_monotone() {
        let mut prev = ln_factorial(1_000);
        for n in [10_000u64, 100_000, 1_000_000] {
            let v = ln_factorial(n);
            assert!(v.is_finite());
            assert!(v > prev);
            prev = v;
        }
    }
}
