//! `analyze`: one caller analyses a seeded ladder of distinct designs
//! back to back, each through build → `analyze_cached` (fresh
//! `SweepCache`) → `dominant_poles`, as `plltool analyze` does.

use crate::harness::{ratio, Checked, Leg, Metrics, TracedLeg, Workload};
use htmpll::core::{
    analyze_cached, dominant_poles, AnalysisReport, LoopFilter, PllDesign, PllModel,
    PllModelBuilder, SweepCache,
};
use htmpll::lti::{ChargePumpFilter2, ChargePumpFilter3};
use htmpll::num::rng::Rng;
use htmpll::num::Complex;
use htmpll::obs;
use htmpll::par::ThreadBudget;
use htmpll::xcheck::{ladder, Verdict, EXACT_TIER};
use std::collections::BTreeMap;
use std::f64::consts::PI;
use std::time::{Duration, Instant};

/// Designs per ladder: every (crossover stratum, structure) pair of
/// [`Case::generate`] twice. A run cycles through the ladder; each pass is
/// the same work (every item builds a fresh model and cache).
const LADDER_LEN: u64 = 2 * RATIO_STRATA * STRUCTURES;
/// Log-spaced strata of ω_UG/ω₀ over 0.02–0.45.
const RATIO_STRATA: u64 = 8;
/// Filter order and loop-delay Padé order of each structure.
const VARIANTS: [(bool, usize); 5] = [(false, 0), (true, 0), (false, 1), (false, 2), (true, 3)];
/// Structural variants of [`Case::generate`].
const STRUCTURES: u64 = VARIANTS.len() as u64;
/// Band edge the analysis reports for loops beyond the sampling limit
/// (fraction of ω₀).
const BAND_EDGE: f64 = 0.499_999;
/// Relative tolerance of the magnitude and crossover checks, and the
/// phase tolerance in degrees. Loose enough for a refined (bracket and
/// root-find) crossover, tight enough that a crossover taken off a grid
/// point misses it.
const MAG_TOL: f64 = 1e-6;
const PHASE_TOL_DEG: f64 = 1e-4;
/// Largest |1 + λ(p)| accepted at a dominant pole `p` (the bound
/// `dominant_poles` itself verifies its Newton roots against).
const POLE_RESIDUAL: f64 = 1e-6;

/// Units of a ladder design.
#[derive(Debug, Clone, Copy)]
enum Units {
    /// `ω_UG = 1 rad/s`, `C_t = 1 F`, `K_vco = N = 1`.
    Normalized,
    /// Physical synthesizer: reference in MHz, integer divider, 1 nF.
    Mhz { f_ref: f64, divider: f64, kvco: f64 },
}

/// One design of the ladder.
#[derive(Debug, Clone, Copy)]
struct Case {
    ratio: f64,
    spread: f64,
    third_order: bool,
    units: Units,
    /// Loop delay as (fraction of the reference period, Padé order).
    delay: Option<(f64, usize)>,
}

impl Case {
    /// Design `index` of a ladder under `seed`, in normalized or in MHz
    /// units. The structure and the crossover stratum are fixed by the
    /// index (the structure cycles fastest, so even a short leg sees every
    /// structure), so every seed's ladder has the same make-up (and the
    /// same cost, to within the continuous parameters): ω_UG/ω₀ in one of
    /// 8 log-spaced strata of 0.02–0.45 (the top strata beyond the
    /// sampling limit), and every filter order and Padé order of
    /// [`VARIANTS`].
    fn generate(seed: u64, index: u64, mhz: bool) -> Case {
        let mut rng = Rng::for_stream(seed, index);
        let stratum = ((index / STRUCTURES) % RATIO_STRATA) as f64 + rng.uniform();
        let (lo, hi) = (0.02f64.ln(), 0.45f64.ln());
        let ratio = (lo + (hi - lo) * stratum / RATIO_STRATA as f64).exp();
        let (third_order, pade) = VARIANTS[(index % STRUCTURES) as usize];
        let units = if mhz {
            Units::Mhz {
                f_ref: rng.range(5e6, 100e6),
                divider: rng.range(8.0, 256.0).round(),
                kvco: 2.0 * PI * rng.range(10e6, 500e6),
            }
        } else {
            Units::Normalized
        };
        Case {
            ratio,
            spread: rng.range(2.5, 8.0),
            third_order,
            units,
            delay: (pade > 0).then(|| (rng.range(0.05, 0.3), pade)),
        }
    }

    /// The design: crossover at `ratio·ω₀`, zero at `ω_UG/spread`, pole at
    /// `spread·ω_UG` (3rd order: smoothing pole at `8·ω_UG`), charge pump
    /// solved for `|A(jω_UG)| = 1`.
    fn design(&self) -> Result<PllDesign, String> {
        let (f_ref, divider, kvco, wug, c_total) = match self.units {
            Units::Normalized => (1.0 / (2.0 * PI * self.ratio), 1.0, 1.0, 1.0, 1.0),
            Units::Mhz {
                f_ref,
                divider,
                kvco,
            } => (f_ref, divider, kvco, self.ratio * 2.0 * PI * f_ref, 1e-9),
        };
        let base = ChargePumpFilter2::from_pole_zero(wug / self.spread, wug * self.spread, c_total)
            .map_err(|e| e.to_string())?;
        let filter = if self.third_order {
            let c3 = 0.02 * c_total;
            let f3 =
                ChargePumpFilter3::new(base.r(), base.c1(), base.c2(), 1.0 / (8.0 * wug * c3), c3)
                    .map_err(|e| e.to_string())?;
            LoopFilter::ThirdOrder(f3)
        } else {
            LoopFilter::SecondOrder(base)
        };
        let icp = 2.0 * PI * divider * wug / (kvco * filter.impedance().eval_jw(wug).abs());
        PllDesign::builder()
            .f_ref(f_ref)
            .icp(icp)
            .kvco(kvco)
            .divider(divider)
            .filter(filter)
            .build()
            .map_err(|e| e.to_string())
    }

    /// The model builder: the design plus the loop delay, if any.
    fn model_builder(&self) -> Result<PllModelBuilder, String> {
        let design = self.design()?;
        let t_ref = 1.0 / design.f_ref();
        let builder = PllModel::builder(design);
        Ok(match self.delay {
            Some((frac, order)) => builder.loop_delay(frac * t_ref, order),
            None => builder,
        })
    }
}

/// The analyze workload.
pub struct Analyze {
    seed: u64,
    next: u64,
    /// The last run of the MHz-unit probe: designs run, designs that
    /// failed a check, and designs whose `dominant_poles` came back empty.
    probe: (u64, u64, u64),
}

impl Analyze {
    /// A ladder seeded by `seed`.
    pub fn new(seed: u64) -> Analyze {
        Analyze {
            seed,
            next: 0,
            probe: (0, 0, 0),
        }
    }

    fn next_case(&mut self) -> Case {
        let case = Case::generate(self.seed, self.next % LADDER_LEN, false);
        self.next += 1;
        case
    }
}

/// Failed checks by name, each with its count and the first design that
/// failed it, so a failure is reported once however often it recurs.
#[derive(Default)]
struct Tally(BTreeMap<String, (u64, String)>);

impl Tally {
    /// Counts one failure `e` ("check: detail") of `case`.
    fn add(&mut self, case: &Case, e: &str) {
        let (what, detail) = e.split_once(": ").map_or((e, None), |(w, d)| (w, Some(d)));
        let entry = self.0.entry(what.to_string()).or_insert_with(|| {
            let first = detail.map_or(format!("{case:?}"), |d| format!("{d}; {case:?}"));
            (0, first)
        });
        entry.0 += 1;
    }

    /// One line per failed check, with its count.
    fn lines(self) -> impl Iterator<Item = (u64, String)> {
        self.0
            .into_iter()
            .map(|(what, (count, first))| (count, format!("`{what}`; first: {first}")))
    }
}

/// One item: the design's model, its report and its dominant poles.
fn analyze_one(
    case: &Case,
    threads: usize,
) -> Result<(PllModel, AnalysisReport, Vec<Complex>), String> {
    let builder = case.model_builder()?;
    let model = {
        let _s = obs::span("bench", "model_build");
        builder.build()
    }
    .map_err(|e| format!("build: {e}"))?;
    let report = {
        let _s = obs::span("bench", "analyze_cached");
        analyze_cached(&model, ThreadBudget::Fixed(threads), &SweepCache::new())
    }
    .map_err(|e| format!("analyze: {e}"))?;
    let poles = {
        let _s = obs::span("bench", "dominant_poles");
        dominant_poles(&model)
    }
    .map_err(|e| format!("dominant_poles: {e}"))?;
    Ok((model, report, poles))
}

/// Phase difference in degrees, wrapped to [0, 180].
fn phase_gap_deg(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(360.0);
    d.min(360.0 - d)
}

/// Checks one report against the public evaluators of its model.
fn check(model: &PllModel, r: &AnalysisReport, poles: &[Complex]) -> Result<(), String> {
    let a = model.open_loop().eval_jw(r.omega_ug_lti);
    let mut graded = vec![
        (
            "|A(jw_ug)| = 1",
            (a.abs() - 1.0).abs(),
            MAG_TOL,
            (a.abs(), 1.0),
        ),
        (
            "PM_lti = 180 + arg A(jw_ug)",
            phase_gap_deg(r.phase_margin_lti_deg, 180.0 + a.arg().to_degrees()),
            PHASE_TOL_DEG,
            (r.phase_margin_lti_deg, 180.0 + a.arg().to_degrees()),
        ),
    ];
    let lam = model.lambda().eval_jw(r.omega_ug_eff);
    let pm_from_lambda = 180.0 + lam.arg().to_degrees();
    graded.push((
        "PM_eff = 180 + arg lambda(jw_ug_eff)",
        phase_gap_deg(r.phase_margin_eff_deg, pm_from_lambda),
        PHASE_TOL_DEG,
        (r.phase_margin_eff_deg, pm_from_lambda),
    ));
    if r.beyond_sampling_limit {
        let edge = BAND_EDGE * model.design().omega_ref();
        graded.push((
            "w_ug_eff = band edge",
            (r.omega_ug_eff / edge - 1.0).abs(),
            MAG_TOL,
            (r.omega_ug_eff, edge),
        ));
        graded.push((
            "|lambda| >= 1 at the band edge",
            (1.0 - lam.abs()).max(0.0),
            MAG_TOL,
            (lam.abs(), 1.0),
        ));
    } else {
        graded.push((
            "|lambda(jw_ug_eff)| = 1",
            (lam.abs() - 1.0).abs(),
            MAG_TOL,
            (lam.abs(), 1.0),
        ));
    }
    for (name, deviation, bound, values) in graded {
        if let Verdict::Mismatch { values, .. } = ladder(
            deviation,
            EXACT_TIER,
            bound,
            "crossover extraction",
            name,
            values,
        ) {
            return Err(format!("{name}: {} vs {}", values.0, values.1));
        }
    }
    // The closed loop always has poles: an empty list means none of the
    // Newton runs converged. Each pole must be a root of 1 + λ.
    if poles.is_empty() {
        return Err("no dominant pole found".to_string());
    }
    for p in poles {
        let residual = (Complex::ONE + model.lambda().eval(*p)).abs();
        if residual.is_nan() || residual > POLE_RESIDUAL {
            return Err(format!(
                "|1 + lambda| > {POLE_RESIDUAL} at a dominant pole: {residual} at {p}"
            ));
        }
    }
    Ok(())
}

impl Workload for Analyze {
    /// Warm-up: one fixed design.
    fn setup(&mut self, threads: usize) -> Result<(), String> {
        analyze_one(&Case::generate(0, 2, false), threads).map(drop)
    }

    /// Passes over the ladder from its first design; a round is one pass.
    /// Failures are reported once per failed check, with their count and
    /// the first design that failed it.
    fn leg(&mut self, threads: usize, budget: Duration) -> Leg {
        let mut leg = Leg::default();
        let mut failures = Tally::default();
        self.next = 0;
        let t0 = Instant::now();
        let mut pass = t0;
        while leg.items == 0 || t0.elapsed() < budget {
            if self.next > 0 && self.next.is_multiple_of(LADDER_LEN) {
                leg.round_rates
                    .push(LADDER_LEN as f64 / pass.elapsed().as_secs_f64());
                pass = Instant::now();
            }
            let case = self.next_case();
            let ts = Instant::now();
            let out = analyze_one(&case, threads);
            leg.latencies_ms.push(ts.elapsed().as_secs_f64() * 1e3);
            leg.items += 1;
            let checked = out.and_then(|(model, report, poles)| check(&model, &report, &poles));
            if let Err(e) = checked {
                failures.add(&case, &e);
            }
        }
        leg.wall = t0.elapsed();
        for (count, line) in failures.lines() {
            leg.failed += count;
            leg.problems.push(format!("{count} items fail {line}"));
        }
        leg
    }

    fn final_checks(&mut self, _nproc: usize) -> Checked {
        Checked::default()
    }

    /// The ladder's designs in MHz units (reference 5–100 MHz, integer
    /// divider, 1 nF), one per (stratum, structure) pair, run untimed
    /// through the same item and checks. They are not in the timed ladder
    /// because the library gets most of them wrong: λ of loops with five
    /// or more open-loop poles collapses (a false beyond-sampling-limit
    /// verdict), and `dominant_poles` finds no pole for most of them.
    fn known_defects(&mut self, threads: usize) -> Vec<String> {
        let mut failures = Tally::default();
        let (mut failed, mut no_poles) = (0, 0);
        for index in 0..RATIO_STRATA * STRUCTURES {
            let case = Case::generate(self.seed, index, true);
            let checked = analyze_one(&case, threads).and_then(|(model, report, poles)| {
                no_poles += u64::from(poles.is_empty());
                check(&model, &report, &poles)
            });
            if let Err(e) = checked {
                failed += 1;
                failures.add(&case, &e);
            }
        }
        self.probe = (RATIO_STRATA * STRUCTURES, failed, no_poles);
        failures
            .lines()
            .map(|(count, line)| {
                format!("{count} of {} MHz-unit designs fail {line}", self.probe.0)
            })
            .collect()
    }

    fn owned_metrics(
        &mut self,
        traced: &TracedLeg,
        _nproc: usize,
        out: &mut Metrics,
        _checked: &mut Checked,
    ) {
        let analyses = traced.count("bench.analyze_cached").max(1) as f64;
        out.push(
            "core.model_build_ms",
            traced.span_p50_ms("bench.model_build"),
            "ms",
        );
        out.push(
            "core.analyze_ms",
            traced.span_p50_ms("bench.analyze_cached"),
            "ms",
        );
        out.push(
            "core.analyze_scan_ms",
            traced.span_total_ns(|k| k.starts_with("par.") && k.contains("analyze/map"))
                / 1e6
                / analyses,
            "ms",
        );
        out.push(
            "core.poles_ms",
            traced.span_p50_ms("bench.dominant_poles"),
            "ms",
        );
        let (designs, failed, no_poles) = self.probe;
        out.push(
            "core.mhz_probe.fail_rate",
            ratio(failed as f64, designs as f64),
            "ratio",
        );
        out.push(
            "core.mhz_probe.no_pole_rate",
            ratio(no_poles as f64, designs as f64),
            "ratio",
        );
    }
}
