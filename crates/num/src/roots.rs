//! Polynomial root finding by the Aberth–Ehrlich method.
//!
//! Transfer-function pole/zero extraction reduces to finding all complex
//! roots of a real polynomial. [`find_roots`] runs simultaneous
//! Aberth–Ehrlich iteration from perturbed-circle initial guesses, then
//! polishes each root with a few Newton steps.
//!
//! ```
//! use htmpll_num::{roots::find_roots, Poly};
//!
//! // x² + 1 → roots ±j
//! let p = Poly::new(vec![1.0, 0.0, 1.0]);
//! let r = find_roots(&p).expect("converged");
//! assert_eq!(r.len(), 2);
//! assert!(r.iter().all(|z| (z.abs() - 1.0).abs() < 1e-10));
//! ```

use crate::complex::Complex;
use crate::poly::Poly;
use std::fmt;

/// Error returned when root finding cannot proceed or fails to converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindRootsError {
    /// The zero polynomial has no well-defined roots.
    ZeroPolynomial,
    /// Iteration failed to converge within the internal budget.
    NoConvergence,
}

impl fmt::Display for FindRootsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindRootsError::ZeroPolynomial => write!(f, "zero polynomial has no roots"),
            FindRootsError::NoConvergence => write!(f, "root iteration did not converge"),
        }
    }
}

impl std::error::Error for FindRootsError {}

/// Finds all complex roots of a real polynomial.
///
/// Degree-0 polynomials return an empty root list. Exact zero roots
/// (trailing zero constant coefficients) are deflated out first so they
/// are returned exactly, which matters for transfer functions with poles
/// at DC.
///
/// # Errors
///
/// Returns [`FindRootsError::ZeroPolynomial`] for the zero polynomial and
/// [`FindRootsError::NoConvergence`] if the Aberth iteration stalls
/// (pathological inputs far outside the conditioning of PLL loop
/// polynomials).
pub fn find_roots(p: &Poly) -> Result<Vec<Complex>, FindRootsError> {
    if p.is_zero() {
        return Err(FindRootsError::ZeroPolynomial);
    }
    // Deflate exact roots at the origin.
    let mut coeffs = p.coeffs().to_vec();
    let mut zeros_at_origin = 0usize;
    while coeffs.first() == Some(&0.0) && coeffs.len() > 1 {
        coeffs.remove(0);
        zeros_at_origin += 1;
    }
    let reduced = Poly::new(coeffs);
    let mut roots = vec![Complex::ZERO; zeros_at_origin];
    if reduced.degree() == 0 {
        return Ok(roots);
    }
    // Balance: find the roots of q(y) = p(2ᵏ·y), whose roots sit near
    // unit magnitude, and scale them back. Loops in physical units put
    // their poles at 1e6–1e9 rad/s with coefficients spanning ~40
    // decades; Aberth started on the Cauchy circle of such a polynomial
    // converges to garbage. The change of variable multiplies by exact
    // powers of two, so it costs no precision (and k = 0 leaves
    // well-scaled polynomials bit-for-bit on the direct path).
    let k = balance_exponent(&reduced);
    let step = 2f64.powi(k);
    let mut scaled = reduced.coeffs().to_vec();
    for (i, c) in scaled.iter_mut().enumerate() {
        // i exact power-of-two scalings: each intermediate lies between cᵢ and the
        // balanced coefficient, so none can overflow.
        for _ in 0..i {
            *c *= step;
        }
    }
    roots.extend(
        aberth(&Poly::new(scaled))?
            .into_iter()
            .map(|y| y.scale(step)),
    );
    Ok(roots)
}

/// The power-of-two exponent `k` with `2ᵏ ≈ |c₀/cₙ|^{1/n}`, the
/// geometric mean of the root magnitudes of `p` (degree `n ≥ 1`, nonzero
/// constant term).
fn balance_exponent(p: &Poly) -> i32 {
    let c = p.coeffs();
    let n = p.degree();
    let k = ((c[0] / c[n]).abs().log2() / n as f64).round();
    if k.is_finite() {
        k as i32
    } else {
        0
    }
}

/// Upper bound on root magnitudes (Cauchy bound).
fn cauchy_bound(p: &Poly) -> f64 {
    let lead = p.leading().abs();
    let m = p
        .coeffs()
        .iter()
        .take(p.degree())
        .map(|c| c.abs())
        .fold(0.0, f64::max);
    1.0 + m / lead
}

fn aberth(p: &Poly) -> Result<Vec<Complex>, FindRootsError> {
    let n = p.degree();
    let dp = p.derivative();
    let r = cauchy_bound(p);
    // Initial guesses: points on a circle of radius ~r/2 with an
    // irrational angular offset to break symmetry (a classic choice that
    // avoids the stalling fixed points of symmetric starting sets).
    let mut z: Vec<Complex> = (0..n)
        .map(|k| {
            let theta = 2.0 * std::f64::consts::PI * (k as f64) / (n as f64) + 0.4;
            Complex::from_polar(0.5 * r.max(1e-3), theta)
        })
        .collect();

    let scale = p
        .coeffs()
        .iter()
        .map(|c| c.abs())
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale;

    let max_iter = 200 + 20 * n;
    for iter in 0..max_iter {
        let mut max_step = 0.0f64;
        for i in 0..n {
            let pi = p.eval_complex(z[i]);
            if pi.abs() <= tol {
                continue;
            }
            let dpi = dp.eval_complex(z[i]);
            let newton = if dpi == Complex::ZERO {
                // Nudge off a critical point.
                Complex::new(1e-8, 1e-8)
            } else {
                pi / dpi
            };
            let mut repulse = Complex::ZERO;
            for (j, &zj) in z.iter().enumerate() {
                if j != i {
                    let d = z[i] - zj;
                    if d != Complex::ZERO {
                        repulse += d.recip();
                    }
                }
            }
            let denom = Complex::ONE - newton * repulse;
            let step = if denom.abs() < 1e-300 {
                newton
            } else {
                newton / denom
            };
            z[i] -= step;
            max_step = max_step.max(step.abs());
        }
        if max_step < 1e-13 * (1.0 + r) {
            // Newton polish for final accuracy.
            for zi in z.iter_mut() {
                for _ in 0..3 {
                    let pv = p.eval_complex(*zi);
                    let dv = dp.eval_complex(*zi);
                    if dv == Complex::ZERO || pv.abs() <= tol {
                        break;
                    }
                    *zi -= pv / dv;
                }
            }
            snap_to_axes(&mut z);
            htmpll_obs::record!("num", "roots.aberth_iters").record((iter + 1) as f64);
            return Ok(z);
        }
    }
    htmpll_obs::counter!("num", "roots.aberth_failures").inc();
    Err(FindRootsError::NoConvergence)
}

/// Snaps tiny imaginary/real parts of roots to zero so real roots of real
/// polynomials come back exactly real (within conditioning).
fn snap_to_axes(roots: &mut [Complex]) {
    for z in roots.iter_mut() {
        let m = z.abs();
        let eps = 1e-10 * (1.0 + m);
        if z.im.abs() < eps {
            z.im = 0.0;
        }
        if z.re.abs() < eps {
            z.re = 0.0;
        }
    }
}

/// Groups nearly-equal roots into `(representative, multiplicity)` clusters.
///
/// Roots closer than `tol·(1 + |z|)` are merged; the representative is the
/// cluster mean. Partial-fraction expansion uses this to recognize
/// repeated poles (e.g. the double pole at DC of a charge-pump PLL).
pub fn cluster_roots(roots: &[Complex], tol: f64) -> Vec<(Complex, usize)> {
    let mut clusters: Vec<(Complex, usize)> = Vec::new();
    for &r in roots {
        let mut placed = false;
        for (rep, count) in clusters.iter_mut() {
            if (r - *rep).abs() <= tol * (1.0 + rep.abs()) {
                // Running mean keeps the representative centered.
                let n = *count as f64;
                *rep = (*rep * n + r) / (n + 1.0);
                *count += 1;
                placed = true;
                break;
            }
        }
        if !placed {
            clusters.push((r, 1));
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_contains_root(roots: &[Complex], target: Complex, tol: f64) {
        assert!(
            roots.iter().any(|z| (*z - target).abs() < tol),
            "no root near {target} in {roots:?}"
        );
    }

    #[test]
    fn physical_unit_roots_are_recovered() {
        // A Padé-3 delay times a charge-pump filter at a tens-of-MHz
        // reference: roots from 1e7 to 2e9 rad/s, coefficients spanning
        // ~45 decades. Unbalanced, Aberth returned roots near 1e21.
        let targets = [
            Complex::from_re(-1.0e7),
            Complex::from_re(-3.0e8),
            Complex::new(-5.0e8, 4.0e8),
            Complex::new(-5.0e8, -4.0e8),
            Complex::from_re(-2.0e9),
        ];
        let mut p = Poly::constant(1.0);
        for z in [-1.0e7, -3.0e8, -2.0e9] {
            p = &p * &Poly::new(vec![-z, 1.0]);
        }
        p = &p * &Poly::new(vec![4.1e17, 1.0e9, 1.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 5);
        for t in targets {
            assert_contains_root(&r, t, 1e-9 * t.abs());
        }
    }

    #[test]
    fn quadratic_complex_pair() {
        // x² + 2x + 5 → −1 ± 2j
        let p = Poly::new(vec![5.0, 2.0, 1.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 2);
        assert_contains_root(&r, Complex::new(-1.0, 2.0), 1e-9);
        assert_contains_root(&r, Complex::new(-1.0, -2.0), 1e-9);
    }

    #[test]
    fn real_roots_are_real() {
        // (x−1)(x−2)(x−3)
        let p = Poly::from_real_roots(&[1.0, 2.0, 3.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 3);
        for target in [1.0, 2.0, 3.0] {
            assert_contains_root(&r, Complex::from_re(target), 1e-8);
        }
        assert!(
            r.iter().all(|z| z.im == 0.0),
            "roots should be snapped real"
        );
    }

    #[test]
    fn zeros_at_origin_are_exact() {
        // x²(x+3): double root at 0 must come back exactly.
        let p = Poly::new(vec![0.0, 0.0, 3.0, 1.0]);
        let r = find_roots(&p).unwrap();
        let zeros = r.iter().filter(|z| **z == Complex::ZERO).count();
        assert_eq!(zeros, 2);
        assert_contains_root(&r, Complex::from_re(-3.0), 1e-9);
    }

    #[test]
    fn constant_has_no_roots() {
        assert!(find_roots(&Poly::constant(5.0)).unwrap().is_empty());
    }

    #[test]
    fn zero_poly_rejected() {
        assert_eq!(
            find_roots(&Poly::zero()).unwrap_err(),
            FindRootsError::ZeroPolynomial
        );
    }

    #[test]
    fn repeated_roots_found() {
        // (x+1)³ — clustered triple root; Aberth loses some accuracy at
        // multiple roots (conditioning ∝ ε^{1/3}) so use a loose check.
        let p = Poly::from_real_roots(&[-1.0, -1.0, -1.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 3);
        for z in &r {
            assert!((z.re + 1.0).abs() < 1e-4 && z.im.abs() < 1e-4, "{z}");
        }
        let clusters = cluster_roots(&r, 1e-3);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].1, 3);
    }

    #[test]
    fn high_degree_wilkinson_like() {
        // Degree-8 polynomial with roots 1..8 scaled to avoid the worst
        // Wilkinson conditioning.
        let roots: Vec<f64> = (1..=8).map(|k| k as f64 / 8.0).collect();
        let p = Poly::from_real_roots(&roots);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 8);
        for target in roots {
            assert_contains_root(&r, Complex::from_re(target), 1e-6);
        }
    }

    #[test]
    fn residuals_are_small() {
        let p = Poly::new(vec![2.0, -3.0, 0.5, 1.0, 4.0]);
        let r = find_roots(&p).unwrap();
        assert_eq!(r.len(), 4);
        for z in r {
            assert!(p.eval_complex(z).abs() < 1e-8, "residual too large at {z}");
        }
    }

    #[test]
    fn cluster_roots_groups_and_averages() {
        let roots = [
            Complex::new(1.0, 0.0),
            Complex::new(1.0 + 1e-9, 0.0),
            Complex::new(-2.0, 0.5),
        ];
        let c = cluster_roots(&roots, 1e-6);
        assert_eq!(c.len(), 2);
        let big = c.iter().find(|(_, n)| *n == 2).unwrap();
        assert!((big.0 - Complex::new(1.0, 0.0)).abs() < 1e-8);
    }

    #[test]
    fn error_display() {
        assert!(FindRootsError::ZeroPolynomial.to_string().contains("zero"));
        assert!(FindRootsError::NoConvergence
            .to_string()
            .contains("converge"));
    }
}
