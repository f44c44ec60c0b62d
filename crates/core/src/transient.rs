//! Time-domain transients from the time-varying frequency-domain model.
//!
//! The HTM analysis lives in the frequency domain, but designers care
//! about step responses. Because the closed-loop baseband transfer
//! `H₀,₀(jω)` of a **stable** loop is the Fourier transform of a real,
//! causal, decaying kernel, the response to a reference phase step is
//! recovered by numerical inversion:
//!
//! ```text
//! y_step(t) = 1/2 + (1/π) ∫₀^∞ Re[ H₀,₀(jω)·e^{jωt} / (jω) ] dω
//! ```
//!
//! (the principal-value form of the inverse transform of `H/(jω)`;
//! the `1/2` is the half-residue of the pole at the origin, and
//! `H₀,₀(0) = 1` for a type-2 loop). Integration runs over a log grid
//! to `ω_max` — the kernel's smoothness makes the paper's exact-`λ`
//! evaluation cheap enough to sample densely.
//!
//! This predicts the *baseband component* of the true LPTV response;
//! the simulator's step response additionally carries the once-per-`T`
//! correction ripple (content in the other bands), so comparisons use
//! the period-averaged simulated waveform.
//!
//! ```no_run
//! use htmpll_core::{transient::step_response, PllDesign, PllModel};
//!
//! let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap()).build().unwrap();
//! let y = step_response(&model, &[1.0, 5.0, 30.0]);
//! assert!((y[2] - 1.0).abs() < 0.05); // settles to unity (type-2 loop)
//! ```

use crate::closed_loop::PllModel;
use crate::error::CoreError;
use htmpll_num::quad::integrate;
use htmpll_num::Complex;
use htmpll_par::Deadline;

/// Number of logarithmic subdivisions per decade used by the inversion
/// integral.
const SEGMENTS_PER_DECADE: usize = 6;

/// Lower end of the inversion grid; the `[0, W_LO)` head is handled
/// analytically.
const W_LO: f64 = 1e-4;

/// Scan phase named by [`CoreError::DeadlineExceeded`].
const PHASE: &str = "transient inversion";

/// Evaluates the closed-loop response to a **unit reference phase step**
/// at the given times (time units of `θ`; the reply settles to 1 for a
/// type-2 loop).
///
/// Valid for stable loops only: the inversion integral of an unstable
/// `H₀,₀` does not converge to the (growing) true response.
pub fn step_response(model: &PllModel, ts: &[f64]) -> Vec<f64> {
    unbounded(step_response_deadline(model, ts, &Deadline::none()))
}

/// [`step_response`] under a cooperative [`Deadline`], checked before
/// every integration sub-interval, so one late time point cannot overrun
/// the budget.
///
/// # Errors
///
/// [`CoreError::DeadlineExceeded`] when the budget expires.
pub fn step_response_deadline(
    model: &PllModel,
    ts: &[f64],
    deadline: &Deadline,
) -> Result<Vec<f64>, CoreError> {
    step_inversion(|w| model.h00(w), model.design().omega_ref(), ts, deadline)
}

/// Same inversion driven by an arbitrary baseband closed-loop response
/// `h(ω)` with `h(0) = 1` (used for LTI references and the
/// sample-and-hold model).
pub fn step_response_of<F: Fn(f64) -> Complex>(h: F, omega0: f64, ts: &[f64]) -> Vec<f64> {
    unbounded(step_inversion(h, omega0, ts, &Deadline::none()))
}

fn step_inversion<F: Fn(f64) -> Complex>(
    h: F,
    omega0: f64,
    ts: &[f64],
    deadline: &Deadline,
) -> Result<Vec<f64>, CoreError> {
    // Integration range: far below the loop dynamics up to several
    // reference harmonics (the integrand decays like 1/ω² past the loop
    // bandwidth; the notches at mω₀ are smooth in the integrand).
    let w_hi = 8.0 * omega0;
    ts.iter()
        .map(|&t| {
            if t < 0.0 {
                return Ok(0.0);
            }
            let integrand = |w: f64| {
                let v = h(w) * Complex::cis(w * t) / Complex::from_im(w);
                v.re
            };
            let acc = oscillatory_integral(integrand, t, w_hi, deadline)?;
            // Analytic correction for the skipped [0, w_lo) head: there
            // the integrand is ≈ H(0)·sin(ωt)/ω, contributing
            // H(0)·Si(w_lo·t)/π — without it, late times drift by
            // ~w_lo·t/π.
            let h0 = h(W_LO).re;
            let x = W_LO * t;
            let si = x - x * x * x / 18.0 + x.powi(5) / 600.0; // Si series, x ≪ 1
            Ok(0.5 + (acc + h0 * si) / std::f64::consts::PI)
        })
        .collect()
}

/// Phase response to a **unit reference frequency step** (a ramp in
/// reference phase, `θ_ref(t) = t`): the synthesizer hop-settling
/// waveform. Computed by the same inversion applied to `H/(jω)²`,
/// with the double-pole head handled analytically:
/// for `H(0) = 1`, `H′(0) = μ` (real for these loops),
///
/// ```text
/// y_ramp(t) = t + μ + (1/π)·∫₀^∞ Re[(H(jω) − 1 − jωμ)·e^{jωt}/(jω)²] dω
///             + tail corrections for the skipped [0, w_lo) head
/// ```
///
/// For a type-2 loop the tracking error `t − y_ramp(t)` settles to
/// zero; its transient is the hop-settling profile.
pub fn ramp_response_of<F: Fn(f64) -> Complex>(h: F, omega0: f64, ts: &[f64]) -> Vec<f64> {
    unbounded(ramp_inversion(h, omega0, ts, &Deadline::none()))
}

fn ramp_inversion<F: Fn(f64) -> Complex>(
    h: F,
    omega0: f64,
    ts: &[f64],
    deadline: &Deadline,
) -> Result<Vec<f64>, CoreError> {
    let w_hi = 8.0 * omega0;

    // H′(0) by a centered difference at small ω (μ is the loop's
    // velocity-error coefficient; imaginary to first order: H(jω) ≈
    // 1 + jω·μ_c with μ_c = dH/d(jω)).
    let dw = W_LO;
    let mu = ((h(dw) - h(dw).conj()) / Complex::new(0.0, 2.0 * dw)).re;

    ts.iter()
        .map(|&t| {
            if t < 0.0 {
                return Ok(0.0);
            }
            let integrand = |w: f64| {
                let num = h(w) - Complex::ONE - Complex::new(0.0, w * mu);
                let v = num * Complex::cis(w * t) / Complex::from_im(w).sqr();
                v.re
            };
            let acc = oscillatory_integral(integrand, t, w_hi, deadline)?;
            // Skipped head [0, w_lo): integrand → Re[H″-ish] ≈ bounded;
            // its contribution is O(w_lo·t²) for small w_lo·t — include
            // the leading term via the value at w_lo.
            let head = integrand(W_LO) * W_LO;
            Ok(t + mu + (acc + head) / std::f64::consts::PI)
        })
        .collect()
}

/// `∫ integrand dω` over `[W_LO, w_hi]`: piecewise adaptive integration
/// over log-spaced segments, each split into sub-intervals of at most
/// one oscillation period `2π/t`, which keeps the oscillatory tail
/// resolved without a global fine grid. The deadline is checked before
/// every sub-interval.
fn oscillatory_integral<F: Fn(f64) -> f64>(
    integrand: F,
    t: f64,
    w_hi: f64,
    deadline: &Deadline,
) -> Result<f64, CoreError> {
    let decades = (w_hi / W_LO).log10();
    let n_seg = (decades * SEGMENTS_PER_DECADE as f64).ceil() as usize;
    let mut acc = 0.0;
    for k in 0..n_seg {
        let a = W_LO * (w_hi / W_LO).powf(k as f64 / n_seg as f64);
        let b = W_LO * (w_hi / W_LO).powf((k + 1) as f64 / n_seg as f64);
        let osc = ((b - a) * t / (2.0 * std::f64::consts::PI)).ceil().max(1.0) as usize;
        for i in 0..osc {
            if deadline.expired() {
                return Err(CoreError::DeadlineExceeded { phase: PHASE });
            }
            let aa = a + (b - a) * i as f64 / osc as f64;
            let bb = a + (b - a) * (i + 1) as f64 / osc as f64;
            acc += integrate(&integrand, aa, bb, 1e-10);
        }
    }
    Ok(acc)
}

/// Frequency-step tracking error `e(t) = t − y_ramp(t)` of the
/// time-varying model — the hop-settling profile a synthesizer
/// datasheet quotes.
pub fn frequency_step_error(model: &PllModel, ts: &[f64]) -> Vec<f64> {
    unbounded(frequency_step_error_deadline(model, ts, &Deadline::none()))
}

/// [`frequency_step_error`] under a cooperative [`Deadline`], checked as
/// in [`step_response_deadline`].
///
/// # Errors
///
/// [`CoreError::DeadlineExceeded`] when the budget expires.
pub fn frequency_step_error_deadline(
    model: &PllModel,
    ts: &[f64],
    deadline: &Deadline,
) -> Result<Vec<f64>, CoreError> {
    let ys = ramp_inversion(|w| model.h00(w), model.design().omega_ref(), ts, deadline)?;
    Ok(ts.iter().zip(&ys).map(|(&t, y)| t - y).collect())
}

/// The result of an inversion run under [`Deadline::none`].
fn unbounded(r: Result<Vec<f64>, CoreError>) -> Vec<f64> {
    r.expect("Deadline::none() never expires")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PllDesign;
    use htmpll_lti::response;
    use htmpll_lti::Tf;

    #[test]
    fn matches_exact_lti_step_for_slow_loop() {
        // For a very slow loop, H00 ≈ A/(1+A) and the inversion must
        // match the exact PFE-based step response of the LTI closed loop.
        let design = PllDesign::reference_design(0.02).unwrap();
        let model = PllModel::builder(design.clone()).build().unwrap();
        let cl: Tf = design.open_loop_gain().feedback_unity().unwrap();
        let ts = [0.5, 2.0, 5.0, 12.0];
        let exact = response::step_response(&cl, &ts).unwrap();
        let inverted = step_response(&model, &ts);
        for ((t, e), g) in ts.iter().zip(&exact).zip(&inverted) {
            assert!((e - g).abs() < 0.02, "t={t}: exact {e} vs inverted {g}");
        }
    }

    #[test]
    fn settles_to_unity() {
        let model = PllModel::builder(PllDesign::reference_design(0.15).unwrap())
            .build()
            .unwrap();
        let y = step_response(&model, &[40.0]);
        assert!((y[0] - 1.0).abs() < 0.02, "{}", y[0]);
    }

    #[test]
    fn starts_near_zero_and_is_causal() {
        let model = PllModel::builder(PllDesign::reference_design(0.15).unwrap())
            .build()
            .unwrap();
        let y = step_response(&model, &[-1.0, 0.05]);
        assert_eq!(y[0], 0.0);
        assert!(y[1].abs() < 0.2, "{}", y[1]);
    }

    #[test]
    fn ramp_error_settles_to_zero_for_type2() {
        let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
            .build()
            .unwrap();
        let ts = [5.0, 15.0, 40.0];
        let errs = frequency_step_error(&model, &ts);
        // Transient at first, then zero velocity error (type-2 loop).
        assert!(errs[0].abs() > 1e-3, "{errs:?}");
        assert!(errs[2].abs() < 2e-2, "{errs:?}");
    }

    #[test]
    fn ramp_matches_exact_lti_in_slow_limit() {
        // Slow loop: invert H_LTI and compare against the exact PFE ramp
        // response (step response of H/s).
        let design = PllDesign::reference_design(0.02).unwrap();
        let cl = design.open_loop_gain().feedback_unity().unwrap();
        let model = PllModel::builder(design).build().unwrap();
        let ts = [2.0, 6.0, 12.0];
        let inverted = ramp_response_of(|w| model.h00_lti(w), model.design().omega_ref(), &ts);
        // Exact ramp response = inverse Laplace of H/s² = step response
        // of H/s.
        let h_over_s = &cl * &Tf::integrator();
        let exact = response::step_response(&h_over_s, &ts).unwrap();
        for ((t, a), b) in ts.iter().zip(&inverted).zip(&exact) {
            assert!(
                (a - b).abs() < 0.03 * (1.0 + b.abs()),
                "t={t}: inverted {a} vs exact {b}"
            );
        }
    }

    fn digest(ys: &[f64]) -> String {
        let mut h = htmpll_num::hash::Fnv1a::new();
        ys.iter().for_each(|&y| h.write_f64(y));
        h.finish_hex()
    }

    #[test]
    fn expired_deadline_is_deadline_exceeded() {
        let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
            .build()
            .unwrap();
        let ts = [2.0, 40.0];
        // Expires at the first check, and part-way through the first
        // point's integral.
        for checks in [0, 5] {
            let step = step_response_deadline(&model, &ts, &Deadline::after_checks(checks));
            assert!(
                matches!(step, Err(CoreError::DeadlineExceeded { .. })),
                "{step:?}"
            );
            let hop = frequency_step_error_deadline(&model, &ts, &Deadline::after_checks(checks));
            assert!(
                matches!(hop, Err(CoreError::DeadlineExceeded { .. })),
                "{hop:?}"
            );
        }
    }

    #[test]
    fn unbounded_deadline_is_bitwise_the_undeadlined_output() {
        // The digests pin the inversion's bits as they were before the
        // deadline was threaded through it.
        let model = PllModel::builder(PllDesign::reference_design(0.1).unwrap())
            .build()
            .unwrap();
        let ts = [-1.0, 0.5, 3.0, 12.0];
        let step = step_response_deadline(&model, &ts, &Deadline::none()).unwrap();
        let hop = frequency_step_error_deadline(&model, &ts, &Deadline::none()).unwrap();
        assert_eq!(digest(&step), digest(&step_response(&model, &ts)));
        assert_eq!(digest(&hop), digest(&frequency_step_error(&model, &ts)));
        assert_eq!(digest(&step), "937933fc49336df9");
        assert_eq!(digest(&hop), "a1b1551fbf6bec1c");
    }

    #[test]
    fn fast_loop_rings_more_than_lti_predicts() {
        // Approaching the sampling limit the time-varying loop's damping
        // collapses: the step overshoot exceeds the LTI prediction.
        let design = PllDesign::reference_design(0.25).unwrap();
        let model = PllModel::builder(design.clone()).build().unwrap();
        let cl = design.open_loop_gain().feedback_unity().unwrap();
        let ts: Vec<f64> = (1..60).map(|k| 0.25 * k as f64).collect();
        let tv = step_response(&model, &ts);
        let lti = response::step_response(&cl, &ts).unwrap();
        let peak_tv = tv.iter().cloned().fold(0.0f64, f64::max);
        let peak_lti = lti.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak_tv > peak_lti + 0.05,
            "tv peak {peak_tv} vs lti peak {peak_lti}"
        );
    }
}
