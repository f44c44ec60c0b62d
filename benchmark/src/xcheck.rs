//! `xcheck`: `run_corpus` repeated — the one workload where the
//! simulator, spectral estimation, the z-domain models and the dense
//! HTM/LU path do real work.

use crate::harness::{quantile, Checked, Leg, Metrics, TracedLeg, Workload};
use htmpll::obs;
use htmpll::par::ThreadBudget;
use htmpll::xcheck::{run_corpus, StackTimings};
use std::time::{Duration, Instant};

/// The xcheck workload.
pub struct Xcheck {
    corpus: &'static str,
    /// Digest and per-stack timings of each call of the most recent leg.
    last: Vec<(String, StackTimings)>,
}

impl Xcheck {
    /// Repeated runs of the named corpus (`default`, or `quick` at toy
    /// size). The corpus is fixed by the library; it does not depend on
    /// the workload seed.
    pub fn new(corpus: &'static str) -> Xcheck {
        Xcheck {
            corpus,
            last: Vec::new(),
        }
    }
}

fn run(corpus: &str, threads: usize) -> Result<htmpll::xcheck::XcheckReport, String> {
    let _s = obs::span("bench", "run_corpus");
    run_corpus(corpus, ThreadBudget::Fixed(threads)).map_err(|e| format!("{e:?}"))
}

impl Workload for Xcheck {
    /// Warm-up: one pass of the quick corpus (FFT plans, lazy statics).
    fn setup(&mut self, threads: usize) -> Result<(), String> {
        run("quick", threads).map(drop)
    }

    fn leg(&mut self, threads: usize, budget: Duration) -> Leg {
        let mut leg = Leg::default();
        self.last.clear();
        let t0 = Instant::now();
        while leg.latencies_ms.is_empty() || t0.elapsed() < budget {
            let ts = Instant::now();
            let out = run(self.corpus, threads);
            let secs = ts.elapsed().as_secs_f64();
            leg.latencies_ms.push(secs * 1e3);
            match out {
                Ok(report) => {
                    leg.items += report.total_checks() as u64;
                    leg.round_rates.push(report.total_checks() as f64 / secs);
                    for _ in 0..report.mismatches() {
                        leg.fail(format!("{} corpus: mismatch verdict", self.corpus));
                    }
                    let digest = report.digest();
                    if let Some((first, _)) = self.last.first() {
                        if *first != digest {
                            leg.fail(format!("digest {digest} differs from {first} in one leg"));
                        }
                    }
                    self.last.push((digest, report.timings));
                }
                Err(e) => {
                    leg.items += 1;
                    leg.fail(e);
                }
            }
        }
        leg.wall = t0.elapsed();
        leg
    }

    /// The corpus at one thread must reproduce the leg's digest.
    fn final_checks(&mut self, _nproc: usize) -> Checked {
        let mut checked = Checked::default();
        let Some((digest, _)) = self.last.first() else {
            return checked;
        };
        checked.extra_attempted += 1;
        match run(self.corpus, 1) {
            Ok(r) if r.digest() == *digest && r.mismatches() == 0 => {}
            Ok(r) => checked.fail(format!(
                "digest {} with {} mismatches at 1 thread vs {digest}",
                r.digest(),
                r.mismatches()
            )),
            Err(e) => checked.fail(e),
        }
        checked
    }

    fn owned_metrics(
        &mut self,
        _traced: &TracedLeg,
        _nproc: usize,
        out: &mut Metrics,
        _checked: &mut Checked,
    ) {
        let median = |stack: fn(&StackTimings) -> f64| {
            let samples: Vec<f64> = self.last.iter().map(|(_, t)| stack(t)).collect();
            quantile(&samples, 0.5)
        };
        out.push("xcheck.lambda_ms", median(|t| t.lambda_ms), "ms");
        out.push("xcheck.htm_ms", median(|t| t.htm_ms), "ms");
        out.push("xcheck.sim_ms", median(|t| t.sim_ms), "ms");
        out.push("xcheck.spectral_ms", median(|t| t.spectral_ms), "ms");
        out.push("xcheck.zdomain_ms", median(|t| t.zdomain_ms), "ms");
    }
}
