//! The refined analysis agrees with the dense-grid referee.
//!
//! `analyze` brackets every output on a 64-point grid and refines it
//! (Brent for crossings, golden section for peaks) and evaluates only
//! the upper half of the Nyquist contour; `xcheck::grid_reference` is
//! the path it replaced (2048-point grids, full 4097-point contour).
//! Over seeded designs spanning every ladder structure, crossover
//! ratio, zero/pole spread and loop delay the two must report the same
//! crossover, phase margin, bandwidth and verdicts, and refinement may
//! only ever raise the peaking the grid reads.

use htmpll::core::{analyze_with, LoopFilter, PllDesign, PllModel};
use htmpll::lti::{ChargePumpFilter2, ChargePumpFilter3};
use htmpll::num::rng::Rng;
use htmpll::par::{par_map, ThreadBudget};
use htmpll::xcheck::grid_reference;
use std::f64::consts::PI;

/// Designs compared.
const DESIGNS: u64 = 2000;
/// (third-order filter, loop-delay Padé order) of each structure.
const STRUCTURES: [(bool, usize); 5] = [(false, 0), (true, 0), (false, 1), (false, 2), (true, 3)];

/// Design `i`: normalized units (`ω_UG = 1`), ω_UG/ω₀ log-uniform in
/// 0.01–0.47, spread 1.5–10, delay 0.02–0.4 T_ref where the structure
/// has one; the structure cycles with `i`.
fn design(i: u64) -> PllModel {
    let mut rng = Rng::for_stream(0x05EF_14ED, i);
    let (third, pade) = STRUCTURES[(i % STRUCTURES.len() as u64) as usize];
    let ratio = (0.01f64.ln() + (0.47f64.ln() - 0.01f64.ln()) * rng.uniform()).exp();
    let spread = rng.range(1.5, 10.0);
    let delay = rng.range(0.02, 0.4);
    let base = ChargePumpFilter2::from_pole_zero(1.0 / spread, spread, 1.0).unwrap();
    let filter = if third {
        let c3 = 0.02;
        let f3 =
            ChargePumpFilter3::new(base.r(), base.c1(), base.c2(), 1.0 / (8.0 * c3), c3).unwrap();
        LoopFilter::ThirdOrder(f3)
    } else {
        LoopFilter::SecondOrder(base)
    };
    let icp = 2.0 * PI / filter.impedance().eval_jw(1.0).abs();
    let f_ref = 1.0 / (2.0 * PI * ratio);
    let d = PllDesign::builder()
        .f_ref(f_ref)
        .icp(icp)
        .kvco(1.0)
        .divider(1.0)
        .filter(filter)
        .build()
        .unwrap();
    let b = PllModel::builder(d);
    let b = if pade > 0 {
        b.loop_delay(delay / f_ref, pade)
    } else {
        b
    };
    b.build().unwrap()
}

#[test]
fn refined_analysis_matches_dense_grid_on_seeded_designs() {
    let ids: Vec<u64> = (0..DESIGNS).collect();
    let rows = par_map(ThreadBudget::Auto, &ids, |_, &i| {
        let m = design(i);
        let r = analyze_with(&m, ThreadBudget::Fixed(1)).unwrap();
        let g = grid_reference(&m).unwrap();
        (i, r, g)
    });
    let mut worst = (0.0f64, 0.0f64, 0.0f64);
    for (i, r, g) in &rows {
        let ctx = format!("design {i}: {r:?}\nvs grid {g:?}");
        assert_eq!(r.nyquist_stable, g.nyquist_stable, "Nyquist verdict, {ctx}");
        assert_eq!(
            r.beyond_sampling_limit, g.beyond_sampling_limit,
            "sampling-limit verdict, {ctx}"
        );
        let dw = (r.omega_ug_eff / g.omega_ug_eff - 1.0).abs();
        assert!(dw <= 1e-9, "ω_UG,eff off by {dw:e}, {ctx}");
        let dpm = (r.phase_margin_eff_deg - g.phase_margin_eff_deg).abs();
        assert!(dpm <= 1e-6, "PM_eff off by {dpm:e}°, {ctx}");
        match (r.bandwidth_3db, g.bandwidth_3db) {
            (Some(a), Some(b)) => {
                let dbw = (a / b - 1.0).abs();
                assert!(dbw <= 1e-9, "bandwidth off by {dbw:e}, {ctx}");
                worst.2 = worst.2.max(dbw);
            }
            (None, None) => {}
            _ => panic!("bandwidth presence differs, {ctx}"),
        }
        assert!(
            r.peaking_db >= g.peaking_db - 1e-9,
            "refined peaking below the grid's, {ctx}"
        );
        assert!(
            r.peaking_lti_db >= g.peaking_lti_db - 1e-9,
            "refined LTI peaking below the grid's, {ctx}"
        );
        worst.0 = worst.0.max(dw);
        worst.1 = worst.1.max(dpm);
    }
    println!(
        "worst over {DESIGNS} designs: ω_UG,eff {:.1e}, PM_eff {:.1e}°, bandwidth {:.1e}",
        worst.0, worst.1, worst.2
    );
}
