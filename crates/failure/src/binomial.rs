//! Exact binomial variates on the failure generator.
//!
//! Inversion (sequential search from 0) while the mean `n·min(p, 1 − p)` is
//! below 10, and Hörmann's BTRD above that: "The generation of binomial
//! random variates", J. Statist. Comput. Simul. 46 (1993), a transformed
//! rejection with a decomposition whose acceptance test is exact (a ratio
//! of probabilities evaluated by recursion near the mode, by Stirling's
//! series beyond). No normal approximation is used anywhere, so each draw
//! follows Bin(n, p) up to floating-point rounding.

use rand::Rng;

/// At and above this mean `n·min(p, 1 − p)`, BTRD; below it, inversion.
const INVERSION_BELOW: f64 = 10.0;

/// Draws from Bin(`n`, `p`): the number of successes in `n` independent
/// trials of success probability `p`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn binomial<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1], got {p}");
    // Bin(n, p) is n − Bin(n, 1 − p); exact, as 1 − p is representable for
    // p in (½, 1].
    let q = p.min(1.0 - p);
    let x = if n == 0 || q == 0.0 {
        0
    } else if n as f64 * q < INVERSION_BELOW {
        inversion(rng, n, q)
    } else {
        btrd(rng, n, q)
    };
    if p > 0.5 {
        n - x
    } else {
        x
    }
}

/// Inversion: one uniform, walked down the probabilities
/// `f(x + 1) = f(x)·((n + 1)·p/q/(x + 1) − p/q)` from `f(0) = qⁿ`
/// (above e⁻¹⁴ here, as `n·p < 10` and `−ln(1 − p) ≤ 2·ln 2·p` for `p ≤ ½`).
fn inversion<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    let s = p / (1.0 - p);
    let a = (n as f64 + 1.0) * s;
    let mut f = (n as f64 * (-p).ln_1p()).exp();
    let mut u: f64 = rng.gen();
    let mut x = 0;
    // The cap keeps rounding in the tail from walking past `n`.
    while u > f && x < n {
        u -= f;
        x += 1;
        f *= a / x as f64 - s;
    }
    x
}

/// BTRD for `n·p ≥ 10`, `p ≤ ½`, with Hörmann's constants and step
/// numbering in the comments.
fn btrd<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    // Step 0: set-up.
    let m = ((nf + 1.0) * p).floor();
    let r = p / q;
    let nr = (nf + 1.0) * r;
    let npq = nf * p * q;
    let spq = npq.sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let alpha = (2.83 + 5.1 / b) * spq;
    let vr = 0.92 - 4.2 / b;
    let urvr = 0.86 * vr;
    loop {
        // Step 1: the region inside the hat, accepted at once.
        let mut v: f64 = rng.gen();
        if v <= urvr {
            let u = v / vr - 0.43;
            return ((2.0 * a / (0.5 - u.abs()) + b) * u + c).floor() as u64;
        }
        // Steps 2–2.1: a point in the hat's remaining part.
        let u = if v >= vr {
            rng.gen::<f64>() - 0.5
        } else {
            let u = v / vr - 0.93;
            v = rng.gen::<f64>() * vr;
            if u < 0.0 {
                -0.5 - u
            } else {
                0.5 - u
            }
        };
        // Step 3.0.
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + c).floor();
        if k < 0.0 || k > nf {
            continue;
        }
        v *= alpha / (a / (us * us) + b);
        let km = (k - m).abs();
        if km <= 15.0 {
            // Step 3.1: f(k)/f(m) by recursion from the mode.
            let mut f = 1.0;
            let mut i = m.min(k);
            while i < m.max(k) {
                i += 1.0;
                if m < k {
                    f *= nr / i - r;
                } else {
                    v *= nr / i - r;
                }
            }
            if v <= f {
                return k as u64;
            }
            continue;
        }
        // Step 3.2: squeeze on ln v.
        let v = v.ln();
        let rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
        let t = -km * km / (2.0 * npq);
        if v < t - rho {
            return k as u64;
        }
        if v > t + rho {
            continue;
        }
        // Steps 3.3–3.4: the exact test, by Stirling's series.
        let nm = nf - m + 1.0;
        let h = (m + 0.5) * ((m + 1.0) / (r * nm)).ln() + fc(m) + fc(nf - m);
        let nk = nf - k + 1.0;
        let bound = h + (nf + 1.0) * (nm / nk).ln() + (k + 0.5) * (nk * r / (k + 1.0)).ln()
            - fc(k)
            - fc(nf - k);
        if v <= bound {
            return k as u64;
        }
    }
}

/// Stirling's correction `fc(k) = ln k! − (k + ½)·ln(k + 1) + (k + 1) −
/// ½·ln 2π`: tabulated below 10, by its series from there.
fn fc(k: f64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_26,
        0.041_340_695_955_409_29,
        0.027_677_925_684_998_34,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_19,
        0.013_876_128_823_070_75,
        0.011_896_709_945_891_77,
        0.010_411_265_261_972_09,
        0.009_255_462_182_712_733,
        0.008_330_563_433_362_87,
    ];
    if k < 10.0 {
        TABLE[k as usize]
    } else {
        let inv = 1.0 / (k + 1.0);
        let inv2 = inv * inv;
        (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    /// The pmf of Bin(`n`, `p`) at `0..=n`, by the ratio recursion in log
    /// space from the mode and normalised.
    fn pmf(n: u64, p: f64) -> Vec<f64> {
        let m = ((n as f64 + 1.0) * p).floor() as usize;
        let ratio = |x: usize| ((n as f64 - x as f64) / (x as f64 + 1.0) * p / (1.0 - p)).ln();
        let mut log = vec![0.0; n as usize + 1];
        for x in m..n as usize {
            log[x + 1] = log[x] + ratio(x);
        }
        for x in (0..m).rev() {
            log[x] = log[x + 1] - ratio(x);
        }
        let total: f64 = log.iter().map(|l| l.exp()).sum();
        log.iter().map(|l| l.exp() / total).collect()
    }

    /// Pearson's χ² of `draws` draws of Bin(`n`, `p`) against the pmf, over
    /// bins merged from the low end until each expects at least 5, and the
    /// 1 − 10⁻³ quantile of χ² at its degrees of freedom (Wilson–Hilferty).
    fn chi2(n: u64, p: f64, draws: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut observed = vec![0.0; n as usize + 1];
        for _ in 0..draws {
            observed[binomial(&mut rng, n, p) as usize] += 1.0;
        }
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let mut open = (0.0, 0.0);
        for (o, f) in observed.iter().zip(pmf(n, p)) {
            open = (open.0 + o, open.1 + f * draws as f64);
            if open.1 >= 5.0 {
                bins.push(std::mem::take(&mut open));
            }
        }
        let last = bins.last_mut().expect("a bin");
        (last.0, last.1) = (last.0 + open.0, last.1 + open.1);
        let stat = bins.iter().map(|&(o, e)| (o - e).powi(2) / e).sum();
        let df = (bins.len() - 1) as f64;
        let c = 2.0 / (9.0 * df);
        (stat, df * (1.0 - c + 3.090_232 * c.sqrt()).powi(3))
    }

    #[test]
    fn degenerate_cases_draw_nothing_or_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [0.0, 0.3, 0.7, 1.0] {
            assert_eq!(binomial(&mut rng, 0, p), 0);
        }
        for n in [1, 7, 1_000_000] {
            assert_eq!(binomial(&mut rng, n, 0.0), 0);
            assert_eq!(binomial(&mut rng, n, 1.0), n);
        }
    }

    #[test]
    fn p_above_half_is_n_minus_the_mirror_draw() {
        for (n, p) in [(12, 0.8), (500, 0.9), (1000, 0.75)] {
            let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            for _ in 0..1000 {
                assert_eq!(binomial(&mut a, n, p), n - binomial(&mut b, n, 1.0 - p));
            }
        }
    }

    #[test]
    fn mean_and_variance_match_on_both_branches() {
        // Inversion, BTRD, and the far tails of both regimes.
        for (n, p) in
            [(20u64, 0.3f64), (1_000_000, 4e-6), (100, 0.3), (5000, 0.5), (1_000_000, 0.01)]
        {
            let mut rng = StdRng::seed_from_u64(n ^ p.to_bits());
            let draws = 100_000;
            let xs: Vec<f64> = (0..draws).map(|_| binomial(&mut rng, n, p) as f64).collect();
            let mean = xs.iter().sum::<f64>() / draws as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (draws - 1) as f64;
            let (mu, sigma2) = (n as f64 * p, n as f64 * p * (1.0 - p));
            // 5 standard errors of the mean; the variance's standard error
            // is about σ²·√(2/draws), so 5 of those are 2.2 %.
            assert!(
                (mean - mu).abs() < 5.0 * (sigma2 / draws as f64).sqrt(),
                "n {n} p {p}: {mean}"
            );
            assert!((var / sigma2 - 1.0).abs() < 0.025, "n {n} p {p}: variance {var} vs {sigma2}");
        }
    }

    #[test]
    fn small_n_follows_the_pmf() {
        for (n, p, seed) in [(10, 0.35, 1), (3, 0.1, 2), (19, 0.5, 3)] {
            let (stat, critical) = chi2(n, p, 100_000, seed);
            assert!(stat < critical, "n {n} p {p}: χ² {stat} ≥ {critical}");
        }
    }

    #[test]
    fn large_n_follows_the_pmf() {
        // BTRD throughout: the recursion near the mode, the squeeze and
        // Stirling's series in the tails.
        for (n, p, seed) in [(60, 0.4, 4), (1_000_000, 0.3, 5)] {
            let (stat, critical) = chi2(n, p, 100_000, seed);
            assert!(stat < critical, "n {n} p {p}: χ² {stat} ≥ {critical}");
        }
    }

    #[test]
    fn stirling_correction_matches_its_definition() {
        let ln_factorial = |k: u64| (1..=k).map(|i| (i as f64).ln()).sum::<f64>();
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        for k in 0..40u64 {
            let kf = k as f64;
            let exact = ln_factorial(k) - (kf + 0.5) * (kf + 1.0).ln() + (kf + 1.0) - half_ln_2pi;
            // The series' first omitted term, 1/(1680·(k + 1)⁷), is 3·10⁻¹¹ at 10.
            let tolerance = if k < 10 { 1e-13 } else { 1e-10 };
            assert!((fc(kf) - exact).abs() < tolerance, "k {k}: {} vs {exact}", fc(kf));
        }
    }
}
