//! Property tests on the workspace's core data structures and
//! invariants.
//!
//! Each property runs over [`CASES`] seeded draws from
//! [`htmpll::num::rng::Rng`]: case `i` of every property uses stream
//! `i` of the [`SEED`] family, so a failure names the case that
//! reproduces it. A case whose draw violates a precondition is rejected
//! (`assume!`) and replaced by the next stream, up to [`MAX_REJECTS`].
//! Inputs that once failed are pinned as explicit regression cases and
//! run before the seeded draws.

use htmpll::htm::{HtmBlock, LtiHtm, MultiplierHtm, SamplerHtm, Truncation, VcoHtm};
use htmpll::lti::{Pfe, Tf};
use htmpll::num::lu::{inverse, Lu};
use htmpll::num::optim::{brent, lin_grid};
use htmpll::num::rng::Rng;
use htmpll::num::roots::find_roots;
use htmpll::num::special::{lattice_sum, lattice_sum_truncated};
use htmpll::num::{CMat, Complex, Poly};
use htmpll::spectral::{fft_any, goertzel, ifft_any};
use std::ops::Range;

/// Accepted cases per property.
const CASES: usize = 256;
/// Seed of the draw family shared by every property.
const SEED: u64 = 0x7072_6f70;
/// Rejected draws tolerated per property before it fails as vacuous.
const MAX_REJECTS: usize = 1024;

/// Why a case did not pass.
enum Skip {
    /// A precondition on the draw failed; the case does not count.
    Reject,
    /// The property is violated.
    Fail(String),
}

type Outcome = Result<(), Skip>;

/// Fails the case unless `cond` holds.
macro_rules! ensure {
    ($cond:expr) => {
        ensure!($cond, "{}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(Skip::Fail(format!($($fmt)+)));
        }
    }};
}

/// Fails the case unless both sides compare equal.
macro_rules! ensure_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        ensure!(
            a == b,
            "{} != {}: {:?} vs {:?}",
            stringify!($a),
            stringify!($b),
            a,
            b
        )
    }};
}

/// Rejects the case unless `cond` holds.
macro_rules! assume {
    ($cond:expr) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(Skip::Reject);
        }
    }};
}

/// Uniform draws over the ranges the properties quantify over.
struct Draw(Rng);

impl Draw {
    /// Uniform `f64` in `[r.start, r.end)`.
    fn f(&mut self, r: Range<f64>) -> f64 {
        self.0.range(r.start, r.end)
    }

    /// Uniform `usize` in `[r.start, r.end)`.
    fn u(&mut self, r: Range<usize>) -> usize {
        r.start + (self.0.next_u64() % (r.end - r.start) as u64) as usize
    }

    /// Complex number uniform in the box `[−m, m)²`.
    fn c(&mut self, m: f64) -> Complex {
        Complex::new(self.f(-m..m), self.f(-m..m))
    }

    /// Vector with length uniform in `len`, entries uniform in `r`.
    fn vec(&mut self, r: Range<f64>, len: Range<usize>) -> Vec<f64> {
        let n = self.u(len);
        (0..n).map(|_| self.f(r.clone())).collect()
    }
}

/// Runs `prop` on [`CASES`] accepted seeded draws, panicking with the
/// stream index of the first failing case.
fn forall(prop: impl Fn(&mut Draw) -> Outcome) {
    let (mut passed, mut rejected) = (0, 0);
    for stream in 0.. {
        match prop(&mut Draw(Rng::for_stream(SEED, stream))) {
            Ok(()) => passed += 1,
            Err(Skip::Reject) => rejected += 1,
            Err(Skip::Fail(msg)) => panic!("case at stream {stream} failed: {msg}"),
        }
        if passed == CASES {
            return;
        }
        assert!(
            rejected <= MAX_REJECTS,
            "{rejected} draws rejected before {CASES} cases passed"
        );
    }
}

/// Runs one pinned regression input; a rejection is a broken pin.
fn regression(outcome: Outcome) {
    match outcome {
        Ok(()) => {}
        Err(Skip::Reject) => panic!("regression input rejected by a precondition"),
        Err(Skip::Fail(msg)) => panic!("regression input failed: {msg}"),
    }
}

// ---------------- Complex field axioms ----------------

#[test]
fn complex_mul_commutes() {
    forall(|g| {
        let (a, b) = (g.c(10.0), g.c(10.0));
        ensure!((a * b - b * a).abs() < 1e-12);
        Ok(())
    });
}

#[test]
fn complex_mul_distributes() {
    forall(|g| {
        let (a, b, c) = (g.c(5.0), g.c(5.0), g.c(5.0));
        ensure!(((a + b) * c - (a * c + b * c)).abs() < 1e-10);
        Ok(())
    });
}

#[test]
fn complex_division_inverts() {
    forall(|g| {
        let (a, b) = (g.c(10.0), g.c(10.0));
        assume!(b.abs() > 1e-6);
        ensure!(((a / b) * b - a).abs() < 1e-9 * (1.0 + a.abs()));
        Ok(())
    });
}

#[test]
fn complex_conj_is_involution() {
    forall(|g| {
        let a = g.c(100.0);
        ensure_eq!(a.conj().conj(), a);
        ensure!(
            (a * a.conj() - Complex::from_re(a.norm_sqr())).abs() < 1e-9 * (1.0 + a.norm_sqr())
        );
        Ok(())
    });
}

#[test]
fn complex_exp_adds() {
    forall(|g| {
        let (a, b) = (g.c(3.0), g.c(3.0));
        let lhs = (a + b).exp();
        let rhs = a.exp() * b.exp();
        ensure!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
        Ok(())
    });
}

#[test]
fn complex_polar_roundtrip() {
    forall(|g| {
        let a = g.c(50.0);
        assume!(a.abs() > 1e-9);
        let (r, th) = a.to_polar();
        ensure!((Complex::from_polar(r, th) - a).abs() < 1e-10 * a.abs());
        Ok(())
    });
}

// ---------------- Polynomial ring axioms ----------------

fn poly_mul_commutes_case(a: Vec<f64>, b: Vec<f64>) -> Outcome {
    // Summation order differs between the two products, so compare
    // coefficients approximately (last-ulp differences are expected).
    let p = Poly::new(a);
    let q = Poly::new(b);
    let pq = &p * &q;
    let qp = &q * &p;
    ensure_eq!(pq.degree(), qp.degree());
    for k in 0..=pq.degree() {
        ensure!((pq.coeff(k) - qp.coeff(k)).abs() <= 1e-10 * (1.0 + pq.coeff(k).abs()));
    }
    Ok(())
}

#[test]
fn poly_mul_commutes() {
    regression(poly_mul_commutes_case(
        vec![-5.0, -5.0, -4.9999999535984685, -4.999994385894681],
        vec![-5.0, -5.0, -5.0, -5.0],
    ));
    forall(|g| poly_mul_commutes_case(g.vec(-5.0..5.0, 0..6), g.vec(-5.0..5.0, 0..6)));
}

#[test]
fn poly_eval_is_ring_hom() {
    forall(|g| {
        let p = Poly::new(g.vec(-3.0..3.0, 0..5));
        let q = Poly::new(g.vec(-3.0..3.0, 0..5));
        let x = g.f(-2.0..2.0);
        let sum = (&p + &q).eval(x);
        ensure!((sum - (p.eval(x) + q.eval(x))).abs() < 1e-9);
        let prod = (&p * &q).eval(x);
        ensure!((prod - p.eval(x) * q.eval(x)).abs() < 1e-7 * (1.0 + prod.abs()));
        Ok(())
    });
}

fn poly_div_rem_case(a: Vec<f64>, b: Vec<f64>) -> Outcome {
    let p = Poly::new(a);
    let d = Poly::new(b);
    assume!(!d.is_zero());
    assume!(d.leading().abs() > 1e-3);
    let (q, r) = p.div_rem(&d);
    let back = &(&q * &d) + &r;
    // Condition-aware tolerance: a divisor with a tiny leading
    // coefficient produces huge quotient coefficients, and the
    // reconstruction error scales with |q|·|d|.
    let qmax = q.coeffs().iter().map(|c| c.abs()).fold(0.0, f64::max);
    let dmax = d.coeffs().iter().map(|c| c.abs()).fold(0.0, f64::max);
    let pmax = p.coeffs().iter().map(|c| c.abs()).fold(1.0, f64::max);
    let tol = 1e-10 * (pmax + qmax * dmax) * (p.degree() + 1) as f64;
    for k in 0..=p.degree().max(back.degree()) {
        ensure!(
            (back.coeff(k) - p.coeff(k)).abs() < tol,
            "k={}: {} vs {} (tol {})",
            k,
            back.coeff(k),
            p.coeff(k),
            tol
        );
    }
    ensure!(r.is_zero() || r.degree() < d.degree());
    Ok(())
}

#[test]
fn poly_div_rem_reconstructs() {
    regression(poly_div_rem_case(
        vec![1.6611846419450722, 0.0, 0.0, 0.0, -2.833833961486232],
        vec![3.6790693264182326, 0.0058628977170708295],
    ));
    forall(|g| poly_div_rem_case(g.vec(-4.0..4.0, 1..7), g.vec(-4.0..4.0, 1..5)));
}

#[test]
fn poly_derivative_is_linear() {
    forall(|g| {
        let p = Poly::new(g.vec(-4.0..4.0, 0..6));
        let q = Poly::new(g.vec(-4.0..4.0, 0..6));
        let k = g.f(-3.0..3.0);
        let lhs = (&p + &q.scale(k)).derivative();
        let rhs = &p.derivative() + &q.derivative().scale(k);
        ensure_eq!(lhs.degree(), rhs.degree());
        for i in 0..=lhs.degree() {
            ensure!((lhs.coeff(i) - rhs.coeff(i)).abs() < 1e-9);
        }
        Ok(())
    });
}

// ---------------- Root finding ----------------

#[test]
fn roots_reconstruct_polynomial() {
    forall(|g| {
        // Keep roots separated so the reconstruction is well-conditioned.
        let mut rs = g.vec(-3.0..3.0, 1..6);
        rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rs.dedup_by(|a, b| (*a - *b).abs() < 0.2);
        let p = Poly::from_real_roots(&rs);
        let found = find_roots(&p).unwrap();
        ensure_eq!(found.len(), rs.len());
        for r in &rs {
            ensure!(
                found
                    .iter()
                    .any(|z| (*z - Complex::from_re(*r)).abs() < 1e-5),
                "missing root {} in {:?}",
                r,
                found
            );
        }
        Ok(())
    });
}

fn root_residuals_case(coeffs: Vec<f64>) -> Outcome {
    let p = Poly::new(coeffs);
    assume!(!p.is_zero() && p.degree() >= 1);
    assume!(p.leading().abs() > 1e-3);
    for z in find_roots(&p).unwrap() {
        // Backward-error bound: |p(z)| small against the evaluation
        // scale Σ|c_k|·|z|^k (an absolute bound is unachievable for
        // far-out roots of ill-scaled inputs).
        let eval_scale: f64 = p
            .coeffs()
            .iter()
            .enumerate()
            .map(|(k, c)| c.abs() * z.abs().powi(k as i32))
            .sum();
        ensure!(
            p.eval_complex(z).abs() < 1e-7 * eval_scale.max(1.0),
            "root {} residual {} vs scale {}",
            z,
            p.eval_complex(z).abs(),
            eval_scale
        );
    }
    Ok(())
}

#[test]
fn root_residuals_small() {
    regression(root_residuals_case(vec![
        0.0,
        0.0,
        0.0,
        2.698381936684884,
        4.548674206787636,
        0.002195316586431622,
    ]));
    forall(|g| root_residuals_case(g.vec(-5.0..5.0, 2..7)));
}

// ---------------- Linear algebra ----------------

#[test]
fn lu_solve_verifies() {
    forall(|g| {
        let entries = g.vec(-2.0..2.0, 32..33);
        let rhs = g.vec(-2.0..2.0, 8..9);
        let n = 4;
        let a = CMat::from_fn(n, n, |i, j| {
            let base = entries[2 * (i * n + j)];
            let im = entries[2 * (i * n + j) + 1];
            // Diagonal dominance keeps the system well-conditioned.
            Complex::new(base + if i == j { 8.0 } else { 0.0 }, im)
        });
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new(rhs[2 * i], rhs[2 * i + 1]))
            .collect();
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            ensure!((*u - *v).abs() < 1e-9);
        }
        Ok(())
    });
}

#[test]
fn inverse_roundtrip() {
    forall(|g| {
        let entries = g.vec(-2.0..2.0, 50..51);
        let n = 5;
        let a = CMat::from_fn(n, n, |i, j| {
            Complex::new(
                entries[i * n + j] + if i == j { 10.0 } else { 0.0 },
                entries[(i * n + j + 13) % 50],
            )
        });
        let inv = inverse(&a).unwrap();
        ensure!((&a * &inv).max_diff(&CMat::identity(n)) < 1e-9);
        ensure!((&inv * &a).max_diff(&CMat::identity(n)) < 1e-9);
        Ok(())
    });
}

#[test]
fn matmul_associative() {
    forall(|g| {
        let x = g.vec(-1.0..1.0, 27..28);
        let m =
            |off: usize| CMat::from_fn(3, 3, |i, j| Complex::from_re(x[(off + i * 3 + j) % 27]));
        let (a, b, c) = (m(0), m(9), m(18));
        let lhs = &(&a * &b) * &c;
        let rhs = &a * &(&b * &c);
        ensure!(lhs.max_diff(&rhs) < 1e-10);
        Ok(())
    });
}

// ---------------- Lattice sums ----------------

#[test]
fn lattice_sum_matches_truncation() {
    forall(|g| {
        let z = Complex::new(g.f(0.05..0.45), g.f(-0.45..0.45));
        let order = g.u(2..4);
        let closed = lattice_sum(z, 1.0, order);
        let brute = lattice_sum_truncated(z, 1.0, order, 20_000);
        ensure!(
            (closed - brute).abs() < 1e-3 * (1.0 + closed.abs()),
            "order {}: {} vs {}",
            order,
            closed,
            brute
        );
        Ok(())
    });
}

#[test]
fn lattice_sum_periodicity() {
    forall(|g| {
        let z = Complex::new(g.f(0.05..0.5), g.f(-0.5..0.5));
        let order = g.u(1..4);
        let a = lattice_sum(z, 1.0, order);
        let b = lattice_sum(z + Complex::from_im(1.0), 1.0, order);
        ensure!((a - b).abs() < 1e-8 * (1.0 + a.abs()));
        Ok(())
    });
}

#[test]
fn lattice_derivative_matches_finite_difference() {
    forall(|g| {
        let z = Complex::new(g.f(0.1..0.4), g.f(-0.4..0.4));
        let order = g.u(1..3);
        let h = 1e-6;
        let fd = (lattice_sum(z + Complex::from_re(h), 1.0, order)
            - lattice_sum(z - Complex::from_re(h), 1.0, order))
            / (2.0 * h);
        let exact = -(order as f64) * lattice_sum(z, 1.0, order + 1);
        ensure!(
            (fd - exact).abs() < 1e-4 * (1.0 + exact.abs()),
            "fd {} vs exact {}",
            fd,
            exact
        );
        Ok(())
    });
}

// ---------------- FFT ----------------

#[test]
fn fft_roundtrip_any_length() {
    forall(|g| {
        let data = g.vec(-10.0..10.0, 2..80);
        let x: Vec<Complex> = data
            .chunks(2)
            .map(|c| Complex::new(c[0], c.get(1).copied().unwrap_or(0.0)))
            .collect();
        let y = ifft_any(&fft_any(&x));
        for (a, b) in x.iter().zip(&y) {
            ensure!((*a - *b).abs() < 1e-9);
        }
        Ok(())
    });
}

#[test]
fn fft_parseval_any_length() {
    forall(|g| {
        let data = g.vec(-10.0..10.0, 3..60);
        let x: Vec<Complex> = data.iter().map(|&v| Complex::from_re(v)).collect();
        let y = fft_any(&x);
        let te: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let fe: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64;
        ensure!((te - fe).abs() < 1e-8 * (1.0 + te));
        Ok(())
    });
}

#[test]
fn goertzel_matches_dft_bin() {
    forall(|g| {
        let data = g.vec(-5.0..5.0, 8..64);
        let bin = g.u(0..8);
        let n = data.len();
        let theta = 2.0 * std::f64::consts::PI * bin as f64 / n as f64;
        let gz = goertzel(&data, theta);
        let x: Vec<Complex> = data.iter().map(|&v| Complex::from_re(v)).collect();
        let reference = fft_any(&x)[bin % n];
        ensure!((gz - reference).abs() < 1e-7 * (1.0 + reference.abs()));
        Ok(())
    });
}

// ---------------- Transfer functions & PFE ----------------

#[test]
fn tf_feedback_identity() {
    forall(|g| {
        let num = g.vec(-3.0..3.0, 1..3);
        let d = Poly::new(g.vec(-3.0..3.0, 2..4));
        assume!(!d.is_zero() && d.degree() >= 1 && d.leading().abs() > 1e-2);
        let tf = Tf::new(Poly::new(num), d).unwrap();
        let cl = tf.feedback_unity().unwrap();
        let s = Complex::new(0.3, 0.9);
        let gv = tf.eval(s);
        assume!((Complex::ONE + gv).abs() > 1e-3);
        let expect = gv / (Complex::ONE + gv);
        ensure!((cl.eval(s) - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        Ok(())
    });
}

#[test]
fn pfe_reconstructs_separated_poles() {
    forall(|g| {
        let mut ps = g.vec(-5.0..-0.2, 1..5);
        let gain = g.f(0.1..3.0);
        ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ps.dedup_by(|a, b| (*a - *b).abs() < 0.3);
        let tf = Tf::new(Poly::constant(gain), Poly::from_real_roots(&ps)).unwrap();
        let pfe = Pfe::expand(&tf, 1e-6).unwrap();
        for &(re, im) in &[(0.5, 0.5), (1.0, -2.0)] {
            let s = Complex::new(re, im);
            let a = tf.eval(s);
            ensure!((pfe.eval(s) - a).abs() < 1e-6 * (1.0 + a.abs()));
        }
        Ok(())
    });
}

#[test]
fn pade_is_all_pass_and_stable() {
    use htmpll::lti::pade_delay;
    forall(|g| {
        let (tau, order) = (g.f(0.05..3.0), g.u(1..7));
        let d = pade_delay(tau, order).unwrap();
        for w in [0.1, 1.0, 10.0] {
            ensure!((d.eval_jw(w).abs() - 1.0).abs() < 1e-9);
        }
        for p in d.poles().unwrap() {
            ensure!(p.re < 0.0, "unstable pole {}", p);
        }
        Ok(())
    });
}

// ---------------- HTM structure ----------------

#[test]
fn lti_htm_is_diagonal() {
    forall(|g| {
        let (wc, w, k) = (g.f(0.2..5.0), g.f(0.01..3.0), g.u(1..4));
        let blk = LtiHtm::new(Tf::first_order_lowpass(wc), 2.0);
        let t = Truncation::new(k);
        let h = blk.htm(Complex::from_im(w), t);
        for n in t.harmonics() {
            for m in t.harmonics() {
                if n != m {
                    ensure_eq!(h.band(n, m), Complex::ZERO);
                }
            }
        }
        Ok(())
    });
}

#[test]
fn multiplier_htm_is_toeplitz() {
    forall(|g| {
        let (c0, c1, k) = (g.f(-2.0..2.0), g.f(-2.0..2.0), g.u(1..4));
        let blk = MultiplierHtm::from_fourier(
            vec![
                Complex::from_re(c1),
                Complex::from_re(c0),
                Complex::from_re(c1),
            ],
            1.0,
        );
        let t = Truncation::new(k);
        let h = blk.htm(Complex::ZERO, t);
        for n in t.harmonics() {
            for m in t.harmonics() {
                if let (Some(_), Some(_)) = (t.index_of(n - 1), t.index_of(m - 1)) {
                    ensure_eq!(h.band(n, m), h.band(n - 1, m - 1));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn sampler_htm_rank_one() {
    forall(|g| {
        let (w0, k) = (g.f(0.5..20.0), g.u(1..4));
        let blk = SamplerHtm::new(w0);
        let t = Truncation::new(k);
        let h = blk.htm(Complex::from_im(0.3), t);
        // All 2×2 minors vanish.
        for n in t.harmonics().skip(1) {
            for m in t.harmonics().skip(1) {
                let det = h.band(n, m) * h.band(n - 1, m - 1) - h.band(n, m - 1) * h.band(n - 1, m);
                ensure!(det.abs() < 1e-12);
            }
        }
        Ok(())
    });
}

#[test]
fn series_composition_matches_operator_order() {
    forall(|g| {
        // (VCO ∘ sampler) as matrices equals evaluating blocks in order.
        let w0 = 4.0;
        let t = Truncation::new(3);
        let s = Complex::from_im(g.f(0.05..2.0));
        let pfd = SamplerHtm::new(w0);
        let vco = VcoHtm::time_invariant(1.5, w0);
        let manual = &vco.htm(s, t) * &pfd.htm(s, t);
        let composed = htmpll::htm::series(&[&pfd, &vco], s, t);
        ensure!(manual.as_matrix().max_diff(composed.as_matrix()) < 1e-13);
        Ok(())
    });
}

// ---------------- Scalar root refinement and grids ----------------

#[test]
fn brent_finds_planted_root() {
    forall(|g| {
        let (root, scale) = (g.f(-5.0..5.0), g.f(0.5..3.0));
        let f = move |x: f64| scale * (x - root) * (1.0 + 0.1 * (x - root).powi(2));
        let r = brent(f, root - 2.0, root + 2.0, 1e-13, 200).unwrap();
        ensure!((r - root).abs() < 1e-9);
        Ok(())
    });
}

#[test]
fn lin_grid_monotone() {
    forall(|g| {
        let (a, span, n) = (g.f(-10.0..10.0), g.f(0.1..10.0), g.u(2..50));
        let grid = lin_grid(a, a + span, n);
        ensure_eq!(grid.len(), n);
        for w in grid.windows(2) {
            ensure!(w[1] > w[0]);
        }
        Ok(())
    });
}

// ---------------- Analysis layers ----------------

#[test]
fn jury_matches_roots_on_random_polys() {
    use htmpll::zdomain::jury_stable;
    forall(|g| {
        let p = Poly::new(g.vec(-1.5..1.5, 2..6));
        assume!(!p.is_zero() && p.degree() >= 1);
        assume!(p.leading().abs() > 0.05);
        let roots = find_roots(&p).unwrap();
        // Skip near-marginal cases where both methods are tolerance-bound.
        assume!(roots.iter().all(|z| (z.abs() - 1.0).abs() > 1e-3));
        let by_roots = roots.iter().all(|z| z.abs() < 1.0);
        ensure_eq!(jury_stable(&p).unwrap(), by_roots);
        Ok(())
    });
}

#[test]
fn effective_gain_conjugate_symmetry() {
    use htmpll::core::{EffectiveGain, PllDesign};
    forall(|g| {
        let (ratio, w) = (g.f(0.05..0.3), g.f(0.05..2.0));
        let d = PllDesign::reference_design(ratio).unwrap();
        let lam = EffectiveGain::new(&d.open_loop_gain(), d.omega_ref()).unwrap();
        let a = lam.eval(Complex::from_im(w));
        let b = lam.eval(Complex::from_im(-w));
        ensure!((a.conj() - b).abs() < 1e-9 * (1.0 + a.abs()));
        Ok(())
    });
}

#[test]
fn closed_loop_smw_equals_dense_randomized() {
    use htmpll::core::{PllDesign, PllModel};
    forall(|g| {
        let (ratio, w, k) = (g.f(0.05..0.25), g.f(0.05..2.0), g.u(2..6));
        let m = PllModel::builder(PllDesign::reference_design(ratio).unwrap())
            .build()
            .unwrap();
        let t = Truncation::new(k);
        let s = Complex::from_im(w);
        let fast = m.closed_loop_htm(s, t);
        let dense = m.closed_loop_htm_dense(s, t).unwrap();
        ensure!(fast.as_matrix().max_diff(dense.as_matrix()) < 1e-9);
        Ok(())
    });
}

#[test]
fn impulse_invariant_matches_time_samples() {
    use htmpll::zdomain::impulse_invariant;
    forall(|g| {
        let (a, t, k) = (g.f(0.3..4.0), g.f(0.1..1.0), g.u(0..10));
        let p = Tf::from_coeffs(vec![1.0], vec![a, 1.0]).unwrap();
        let gz = impulse_invariant(&p, t).unwrap();
        let series = gz.impulse_response(k + 1);
        let expect = (-a * t * k as f64).exp();
        ensure!((series[k] - expect).abs() < 1e-9 * (1.0 + expect));
        Ok(())
    });
}

#[test]
fn noise_shapes_nonnegative() {
    use htmpll::core::NoiseShape;
    forall(|g| {
        let (w, lvl) = (g.f(0.001..100.0), g.f(1e-15..1e-6));
        let shapes = [
            NoiseShape::White { level: lvl },
            NoiseShape::PowerLaw {
                level_at_ref: lvl,
                w_ref: 1.0,
                exponent: 2,
            },
            NoiseShape::Leeson {
                floor: lvl,
                flicker_corner: 0.1,
                half_bw: 1.0,
            },
        ];
        for s in shapes {
            let v = s.psd(w);
            ensure!(v.is_finite() && v >= 0.0);
        }
        Ok(())
    });
}

#[test]
fn window_gains_bounded() {
    use htmpll::spectral::Window;
    forall(|g| {
        let n = g.u(8..512);
        for w in [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::BlackmanHarris,
        ] {
            let cg = w.coherent_gain(n);
            let pg = w.power_gain(n);
            ensure!(cg > 0.0 && cg <= 1.0 + 1e-12);
            ensure!(pg > 0.0 && pg <= 1.0 + 1e-12);
            ensure!(w.enbw_bins(n) >= 1.0 - 1e-9);
        }
        Ok(())
    });
}

// ---------------- Eigenvalues ----------------

/// `n×n` complex matrix from `2n²` interleaved (re, im) draws, with
/// `shift` added to the diagonal.
fn cmat(n: usize, entries: &[f64], shift: f64) -> CMat {
    CMat::from_fn(n, n, |i, j| {
        Complex::new(
            entries[2 * (i * n + j)] + if i == j { shift } else { 0.0 },
            entries[2 * (i * n + j) + 1],
        )
    })
}

#[test]
fn eigenvalue_trace_invariant() {
    use htmpll::num::eigenvalues;
    forall(|g| {
        let n = 4;
        let a = cmat(n, &g.vec(-2.0..2.0, 32..33), 0.0);
        let evs = eigenvalues(&a).unwrap();
        ensure_eq!(evs.len(), n);
        let tr: Complex = (0..n).map(|i| a[(i, i)]).sum();
        let sum: Complex = evs.iter().copied().sum();
        ensure!(
            (tr - sum).abs() < 1e-8 * (1.0 + tr.abs()),
            "trace {} vs eig sum {}",
            tr,
            sum
        );
        Ok(())
    });
}

#[test]
fn eigenvalue_det_invariant() {
    use htmpll::num::eigenvalues;
    forall(|g| {
        let a = cmat(3, &g.vec(-2.0..2.0, 18..19), 3.0);
        let evs = eigenvalues(&a).unwrap();
        let det = Lu::factor(&a).unwrap().det();
        let prod: Complex = evs.iter().copied().product();
        ensure!(
            (det - prod).abs() < 1e-7 * (1.0 + det.abs()),
            "det {} vs eig product {}",
            det,
            prod
        );
        Ok(())
    });
}

#[test]
fn similarity_preserves_eigenvalues() {
    use htmpll::num::eig::hessenberg;
    use htmpll::num::eigenvalues;
    forall(|g| {
        let a = cmat(3, &g.vec(-1.5..1.5, 18..19), 0.0);
        let mut e1 = eigenvalues(&a).unwrap();
        let mut e2 = eigenvalues(&hessenberg(&a).unwrap()).unwrap();
        let key = |z: &Complex| (z.re, z.im);
        e1.sort_by(|x, y| key(x).partial_cmp(&key(y)).unwrap());
        e2.sort_by(|x, y| key(x).partial_cmp(&key(y)).unwrap());
        for (x, y) in e1.iter().zip(&e2) {
            ensure!((*x - *y).abs() < 1e-7 * (1.0 + x.abs()));
        }
        Ok(())
    });
}

#[test]
fn expm_inverse_property() {
    use htmpll::num::mat::expm;
    forall(|g| {
        let n = 3;
        let a = cmat(n, &g.vec(-0.8..0.8, 18..19), 0.0);
        let e = expm(&a).unwrap();
        let einv = expm(&a.scale(Complex::from_re(-1.0))).unwrap();
        ensure!((&e * &einv).max_diff(&CMat::identity(n)) < 1e-9);
        Ok(())
    });
}

// ---------------- Simulation and estimation ----------------

#[test]
fn period_map_is_linear_under_linear_law() {
    use htmpll::core::PllDesign;
    use htmpll::sim::{PeriodMap, PulseLaw, SimParams};
    forall(|g| {
        let (ratio, a, b) = (g.f(0.05..0.2), g.f(-2e-3..2e-3), g.f(-2e-3..2e-3));
        let params = SimParams::from_design(&PllDesign::reference_design(ratio).unwrap());
        let run = |amp: f64| {
            let mut m = PeriodMap::new(&params, PulseLaw::Linear);
            m.run(40, |k| amp * ((k as f64) * 0.37).sin())
        };
        let ya = run(a);
        let yb = run(b);
        let yab = run(a + b);
        for ((x, y), z) in ya.iter().zip(&yb).zip(&yab) {
            ensure!(
                (x + y - z).abs() < 1e-12 * (1.0 + z.abs()),
                "superposition violated: {} + {} vs {}",
                x,
                y,
                z
            );
        }
        Ok(())
    });
}

#[test]
fn tf_estimate_recovers_random_fir() {
    use htmpll::spectral::tf_estimate;
    forall(|g| {
        let taps = g.vec(-1.0..1.0, 1..5);
        // Deterministic noise through a random FIR filter.
        let mut state = 0xabcdef12345u64;
        let x: Vec<f64> = (0..1 << 13)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 32) as u32 as f64) / (u32::MAX as f64) - 0.5
            })
            .collect();
        let mut y = vec![0.0; x.len()];
        for k in taps.len()..x.len() {
            y[k] = taps.iter().enumerate().map(|(j, &t)| t * x[k - j]).sum();
        }
        let est = tf_estimate(&x, &y, 1.0, 512);
        for bin in est.iter().step_by(41) {
            let z = Complex::cis(-2.0 * std::f64::consts::PI * bin.frequency);
            let expect: Complex = taps
                .iter()
                .enumerate()
                .map(|(j, &t)| z.powi(j as i32).scale(t))
                .sum();
            assume!(expect.abs() > 0.05); // skip near-nulls of the FIR
            ensure!(
                (bin.h - expect).abs() < 0.1 * (1.0 + expect.abs()),
                "f={}: {} vs {}",
                bin.frequency,
                bin.h,
                expect
            );
        }
        Ok(())
    });
}
