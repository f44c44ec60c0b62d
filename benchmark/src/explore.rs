//! `explore`: one caller runs seeded `explore` calls with refinement on
//! and the default feasibility spec.

use crate::harness::{quantile, ratio, Checked, Leg, Metrics, TracedLeg, Workload};
use htmpll::core::{explore, ExploreReport, ExploreSpec, SweepCache};
use htmpll::num::rng::Rng;
use htmpll::obs;
use htmpll::par::ThreadBudget;
use std::time::{Duration, Instant};

/// The explore workload.
pub struct Explore {
    seed: u64,
    /// Monte-Carlo candidates per call (256-candidate blocks).
    candidates: usize,
    calls: u64,
    /// Specs and reports of the most recent leg's calls.
    last: Vec<(ExploreSpec, ExploreReport)>,
}

impl Explore {
    /// Calls of `candidates` candidates each, seeded by `seed`.
    pub fn new(seed: u64, candidates: usize) -> Explore {
        Explore {
            seed,
            candidates,
            calls: 0,
            last: Vec::new(),
        }
    }

    /// The spec of call `call`: defaults (feasibility PM ≥ 50°, spur ≤
    /// −65 dBc, front cap 256, one refinement round, screen on) with a
    /// per-call seed, drawing Halton candidates: every call covers the
    /// design box evenly, so calls (and seeds) share one make-up of cheap
    /// screened-out and expensive fully analysed candidates.
    fn spec(&self, call: u64, candidates: usize, threads: usize) -> ExploreSpec {
        ExploreSpec {
            candidates,
            seed: Rng::for_stream(self.seed, call).next_u64(),
            quasi: true,
            threads: ThreadBudget::Fixed(threads),
            ..ExploreSpec::default()
        }
    }
}

fn run(spec: &ExploreSpec) -> Result<ExploreReport, String> {
    let _s = obs::span("bench", "explore");
    explore(spec, &SweepCache::new()).map_err(|e| e.to_string())
}

/// The front is mutually non-dominated and every member meets the spec;
/// returns one description per violation.
fn check_front(spec: &ExploreSpec, r: &ExploreReport) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, p) in r.front.iter().enumerate() {
        if p.pm_eff_deg < spec.min_pm_deg || p.spur_dbc > spec.max_spur_dbc {
            bad.push(format!(
                "front point {i} misses the spec: PM {} spur {}",
                p.pm_eff_deg, p.spur_dbc
            ));
        }
        if let Some(j) = r.front.iter().position(|q| q.dominates(p)) {
            bad.push(format!("front point {i} is dominated by point {j}"));
        }
    }
    bad
}

impl Workload for Explore {
    /// Warm-up: one fixed 256-candidate block without refinement.
    fn setup(&mut self, threads: usize) -> Result<(), String> {
        run(&ExploreSpec {
            candidates: 256,
            seed: 0,
            refine_rounds: 0,
            quasi: true,
            threads: ThreadBudget::Fixed(threads),
            ..ExploreSpec::default()
        })
        .map(drop)
    }

    fn leg(&mut self, threads: usize, budget: Duration) -> Leg {
        let mut leg = Leg::default();
        self.last.clear();
        let t0 = Instant::now();
        while leg.items == 0 || t0.elapsed() < budget {
            let spec = self.spec(self.calls, self.candidates, threads);
            self.calls += 1;
            let ts = Instant::now();
            let out = run(&spec);
            let secs = ts.elapsed().as_secs_f64();
            leg.latencies_ms.push(secs * 1e3);
            match out {
                Ok(report) => {
                    let items = (report.evaluated + report.refined) as u64;
                    leg.items += items;
                    leg.round_rates.push(items as f64 / secs);
                    for _ in 0..report.failed {
                        leg.fail(format!("seed {}: a candidate failed outright", spec.seed));
                    }
                    for problem in check_front(&spec, &report) {
                        leg.fail(format!("seed {}: {problem}", spec.seed));
                    }
                    self.last.push((spec, report));
                }
                Err(e) => {
                    leg.items += spec.candidates as u64;
                    leg.fail(format!("seed {}: {e}", spec.seed));
                }
            }
        }
        leg.wall = t0.elapsed();
        leg
    }

    /// The first call of the last leg, repeated at one thread, must land
    /// on the identical front digest.
    fn final_checks(&mut self, _nproc: usize) -> Checked {
        let mut checked = Checked::default();
        if let Some((spec, report)) = self.last.first() {
            checked.extra_attempted += 1;
            let one = ExploreSpec {
                threads: ThreadBudget::Fixed(1),
                ..spec.clone()
            };
            match run(&one) {
                Ok(r) if r.digest == report.digest => {}
                Ok(r) => checked.fail(format!(
                    "seed {}: front digest {} at 1 thread vs {} at {:?}",
                    spec.seed, r.digest, report.digest, spec.threads
                )),
                Err(e) => checked.fail(format!("seed {}: {e}", spec.seed)),
            }
        }
        checked
    }

    fn owned_metrics(
        &mut self,
        traced: &TracedLeg,
        nproc: usize,
        out: &mut Metrics,
        checked: &mut Checked,
    ) {
        let sum = |f: fn(&ExploreReport) -> usize| -> f64 {
            self.last.iter().map(|(_, r)| f(r) as f64).sum()
        };
        let items = sum(|r| r.evaluated + r.refined);
        out.push(
            "core.explore.screen_rate",
            ratio(sum(|r| r.screened_out), items),
            "ratio",
        );
        out.push(
            "core.explore.full_per_item",
            ratio(sum(|r| r.full_analyses), items),
            "ratio",
        );
        let analyze_ns = traced.span_total_ns(|k| {
            k == "core.analyze" || (k.starts_with("core.") && k.ends_with("/analyze"))
        });
        out.push(
            "core.explore.full_stage_share",
            ratio(
                analyze_ns,
                traced.threads as f64 * traced.leg.wall.as_nanos() as f64,
            ),
            "ratio",
        );
        let per_call = |f: fn(&ExploreReport) -> usize| -> f64 {
            let xs: Vec<f64> = self.last.iter().map(|(_, r)| f(r) as f64).collect();
            quantile(&xs, 0.5)
        };
        out.push(
            "core.explore.front_size",
            per_call(|r| r.front.len()),
            "count",
        );
        out.push(
            "core.explore.pruned_per_call",
            per_call(|r| r.pruned),
            "count",
        );

        // Screened vs full evaluation of one reduced corpus (two blocks,
        // no refinement): the same front must come out of both.
        let mut spec = self.spec(u64::MAX - 1, 512.min(2 * self.candidates), nproc);
        spec.refine_rounds = 0;
        let timed = |spec: &ExploreSpec| -> Result<(f64, String), String> {
            let t0 = Instant::now();
            let r = run(spec)?;
            Ok((t0.elapsed().as_secs_f64(), r.digest))
        };
        let full = ExploreSpec {
            screen: false,
            ..spec.clone()
        };
        checked.extra_attempted += 1;
        match (timed(&spec), timed(&full)) {
            (Ok((screened_s, d1)), Ok((full_s, d2))) => {
                if d1 != d2 {
                    checked.fail(format!("screened digest {d1} vs full digest {d2}"));
                }
                out.push(
                    "core.explore.screen_speedup",
                    ratio(full_s, screened_s),
                    "ratio",
                );
            }
            (Err(e), _) | (_, Err(e)) => {
                checked.fail(format!("screen speedup corpus: {e}"));
                out.push("core.explore.screen_speedup", 0.0, "ratio");
            }
        }
    }
}
