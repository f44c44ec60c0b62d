//! Bit-for-bit pins of the behavioral simulator's output.
//!
//! Each scenario runs the engine over one corner of its feature matrix
//! and FNV-1a-hashes the exact `f64` bit patterns of the recorded
//! [`Trace`] (or of an acquisition result). Any change to the event
//! loop, the RK4 kernel or the reference-edge solver that moves a single
//! bit of any sample changes a digest. A legitimate numerical change must
//! re-record the digests and say why; a refactor or speedup must not.
//!
//! The xcheck corpus only simulates the default `SimParams`/`SimConfig`,
//! so the non-idealities below are pinned here and nowhere else.

use htmpll_core::PllDesign;
use htmpll_num::hash::Fnv1a;
use htmpll_sim::{acquire_lock, LockOptions, Mash111, PllSim, SimConfig, SimParams, Trace};

/// Absorbs every field of a trace by its IEEE-754 bits.
fn absorb(h: &mut Fnv1a, trace: &Trace) {
    h.write_f64(trace.dt);
    h.write_f64(trace.t0);
    for series in [&trace.theta_ref, &trace.theta_vco, &trace.v_ctrl] {
        h.write_u64(series.len() as u64);
        for &x in series.iter() {
            h.write_f64(x);
        }
    }
}

fn digest(traces: &[Trace]) -> String {
    let mut h = Fnv1a::new();
    for trace in traces {
        absorb(&mut h, trace);
    }
    h.finish_hex()
}

fn reference_params() -> SimParams {
    SimParams::from_design(&PllDesign::reference_design(0.1).unwrap())
}

fn run_once(params: SimParams, config: SimConfig, periods: f64, m: &dyn Fn(f64) -> f64) -> Trace {
    let mut sim = PllSim::new(params, config);
    let t_ref = sim.params().t_ref;
    sim.run(periods * t_ref, m)
}

#[test]
fn multitone_modulation() {
    let p = reference_params();
    let t_ref = p.t_ref;
    let amp = 1e-3 * t_ref;
    let m = move |t: f64| amp * ((0.3 * t).sin() + (1.1 * t + 0.4).sin() + (2.7 * t + 1.3).sin());
    let trace = run_once(p, SimConfig::default(), 120.0, &m);
    assert_eq!(digest(&[trace]), "6170af5468cd1878");
}

#[test]
fn leakage_mismatch_and_reset_delay() {
    let mut p = reference_params();
    p.leakage = 2e-3 * p.i_cp;
    p.cp_mismatch = 0.15;
    p.reset_delay = 0.02 * p.t_ref;
    let t_ref = p.t_ref;
    let m = move |t: f64| 5e-4 * t_ref * (0.5 * t).sin();
    let trace = run_once(p, SimConfig::default(), 120.0, &m);
    assert_eq!(digest(&[trace]), "2771bb3f1dfefc67");
}

#[test]
fn dead_zone() {
    let mut p = reference_params();
    let t_ref = p.t_ref;
    p.dead_zone = 5e-3 * t_ref;
    let m = move |t: f64| 2e-2 * t_ref * (0.2 * t).sin();
    let trace = run_once(p, SimConfig::default(), 120.0, &m);
    assert_eq!(digest(&[trace]), "9ab2a7cf2ee91003");
}

#[test]
fn isf_cosine() {
    let mut p = reference_params();
    p.isf_cosine = vec![0.3, -0.1];
    let t_ref = p.t_ref;
    let m = move |t: f64| 1e-3 * t_ref * (0.7 * t).sin();
    let trace = run_once(p, SimConfig::default(), 120.0, &m);
    assert_eq!(digest(&[trace]), "ca1264dd4912e2ea");
}

#[test]
fn fractional_n_div_sequence() {
    let base = PllDesign::reference_design(0.1).unwrap();
    let n_int = 16.0;
    let design = PllDesign::builder()
        .f_ref(base.f_ref())
        .icp(base.icp() * n_int)
        .kvco(base.kvco())
        .divider(n_int)
        .filter(base.filter().clone())
        .build()
        .unwrap();
    let mut mash = Mash111::new(0.37, 1 << 12, 0x9e37).unwrap();
    let mut p = SimParams::from_design(&design);
    p.div_sequence = Some(mash.sequence(1 << 10));
    p.f_center = (n_int + mash.realized_fraction()) * design.f_ref();
    let trace = run_once(p, SimConfig::default(), 120.0, &|_| 0.0);
    assert_eq!(digest(&[trace]), "38b793ea554a0323");
}

#[test]
fn reference_jitter_and_vco_fm_noise() {
    let p = reference_params();
    let config = SimConfig {
        ref_jitter_rms: 1e-4 * p.t_ref,
        vco_fm_psd: 1e-8,
        jitter_seed: 0xfeed,
        ..SimConfig::default()
    };
    let trace = run_once(p, config, 120.0, &|_| 0.0);
    assert_eq!(digest(&[trace]), "8127ac000a59e42d");
}

#[test]
fn consecutive_runs_with_different_modulations() {
    // The second run's reference edges must follow its own modulation,
    // not anything remembered from the first run.
    let p = reference_params();
    let t_ref = p.t_ref;
    let mut sim = PllSim::new(p, SimConfig::default());
    let first = sim.run(60.5 * t_ref, &move |t| 2e-3 * t_ref * (0.4 * t).sin());
    let second = sim.run(60.0 * t_ref, &move |t| -3e-3 * t_ref * (0.9 * t).cos());
    assert_eq!(digest(&[first, second]), "e7383143e1173b6a");
}

#[test]
fn acquire_lock_result() {
    let opts = LockOptions {
        hold_periods: 20,
        max_periods: 2000,
        ..LockOptions::default()
    };
    let r = acquire_lock(&reference_params(), &SimConfig::default(), 3e-3, &opts);
    assert!(r.locked);
    let mut h = Fnv1a::new();
    h.write_u64(r.locked as u64);
    h.write_f64(r.lock_time);
    h.write_f64(r.final_error);
    assert_eq!(h.finish_hex(), "efb66393578c3d08");
}
