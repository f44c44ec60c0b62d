//! The dense-grid analysis, kept as the referee of `core::analyze`.
//!
//! `core::analyze` brackets each output on a coarse grid and refines it
//! (Brent for crossings, golden section for peaks) and evaluates only
//! the upper half of the Nyquist contour. This module keeps the path
//! it replaced: 2048-point log grids for every margin, bandwidth and
//! peaking scan, and the full 4097-point strip contour, every point
//! evaluated pointwise. The `refined-vs-grid` check grades the two
//! against each other.

use htmpll_core::{CoreError, PllModel};
use htmpll_htm::nyquist::{strip_contour, strip_zero_count_from_values};
use htmpll_lti::{bandwidth_3db, peaking_db, stability_margins, MarginError};

/// The outputs of [`grid_reference`], named as in `AnalysisReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// Unity-gain frequency of `λ(jω)` (rad/s), or the band edge.
    pub omega_ug_eff: f64,
    /// Phase margin of `λ(jω)` (degrees).
    pub phase_margin_eff_deg: f64,
    /// −3 dB bandwidth of `H₀,₀(jω)` (rad/s), if found.
    pub bandwidth_3db: Option<f64>,
    /// Largest `|H₀,₀|` on the grid, dB relative to the low-end value.
    pub peaking_db: f64,
    /// The same for the LTI closed loop `A/(1+A)`.
    pub peaking_lti_db: f64,
    /// HTM-Nyquist verdict from the full contour.
    pub nyquist_stable: bool,
    /// `|λ| ≥ 1` across the whole first band.
    pub beyond_sampling_limit: bool,
}

/// Dense-grid analysis of `model`: the scan windows of `core::analyze`,
/// 2048 points each, and the full strip contour.
///
/// # Errors
///
/// As `core::analyze`: no LTI unity crossing in the scan window.
pub fn grid_reference(model: &PllModel) -> Result<GridReport, CoreError> {
    let _span = htmpll_obs::span("xcheck", "grid_reference");
    let a = model.open_loop();
    let lam = model.lambda();
    let w0 = model.design().omega_ref();
    let lti = stability_margins(|w| a.eval_jw(w), 1e-7 * w0, 100.0 * w0)?;
    let band_edge = 0.499_999 * w0;
    let w_ref = lti.omega_ug * 1e-4;
    let (omega_ug_eff, phase_margin_eff_deg, beyond_sampling_limit) =
        match stability_margins(|w| lam.eval_jw(w), w_ref, band_edge) {
            Ok(m) => (m.omega_ug, m.phase_margin_deg, false),
            Err(MarginError::NoUnityCrossing) => {
                let edge = lam.eval_jw(band_edge);
                (band_edge, 180.0 + edge.arg().to_degrees(), true)
            }
            Err(e) => return Err(e.into()),
        };
    let h_hi = 100.0 * lti.omega_ug;
    let contour = strip_contour(w0, 1e-4 * lti.omega_ug, 4096);
    let contour_vals: Vec<_> = contour.iter().map(|&s| lam.eval(s)).collect();
    Ok(GridReport {
        omega_ug_eff,
        phase_margin_eff_deg,
        bandwidth_3db: bandwidth_3db(|w| model.h00(w), w_ref, w_ref, h_hi),
        peaking_db: peaking_db(|w| model.h00(w), w_ref, w_ref, h_hi),
        peaking_lti_db: peaking_db(|w| model.h00_lti(w), w_ref, w_ref, h_hi),
        nyquist_stable: strip_zero_count_from_values(&contour_vals) == 0,
        beyond_sampling_limit,
    })
}
