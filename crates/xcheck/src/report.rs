//! Machine-readable verification report with a deterministic digest.
//!
//! The report is the corpus's single artifact: per-scenario,
//! per-comparison verdicts plus per-stack wall-clock. Everything except
//! the timings is folded into an FNV-1a digest, so "two runs produced
//! bitwise-identical numerical results" — e.g. across `HTMPLL_THREADS`
//! settings — collapses to one hex-string comparison. The JSON
//! rendering likewise excludes timings, making the files themselves
//! byte-comparable; wall-clock goes to a separate bench artifact.

use htmpll_num::hash::Fnv1a;
use std::fmt::Write as _;

/// Outcome of one cross-stack comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The routes agree within the exact tier.
    Agree,
    /// The routes differ, but by less than a derivable amount.
    ToleratedDivergence {
        /// The analytic bound the deviation stayed under (relative).
        bound: f64,
        /// Where the bound comes from.
        reason: &'static str,
    },
    /// The routes disagree beyond any justified bound: a model bug.
    Mismatch {
        /// Which two stacks disagreed.
        stacks: &'static str,
        /// The two raw observables, for diagnosis.
        values: (f64, f64),
    },
}

/// One graded comparison.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Short name of the comparison.
    pub check: &'static str,
    /// The stacks being reconciled (e.g. `"core::λ vs zdomain::G"`).
    pub stacks: &'static str,
    /// Observed relative deviation (worst over the probe grid).
    pub deviation: f64,
    /// The verdict from the tolerance ladder.
    pub verdict: Verdict,
}

/// All comparisons for one corpus scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (deterministic, from the corpus generator).
    pub scenario: String,
    /// Graded comparisons.
    pub checks: Vec<CheckResult>,
}

/// Per-stack wall-clock totals in milliseconds. **Excluded from the
/// digest and the JSON report** — timing is machine-dependent and must
/// not break bitwise determinism; timing harnesses read it off the
/// report directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackTimings {
    /// λ evaluations (exact + truncated).
    pub lambda_ms: f64,
    /// Dense/SMW HTM closed-loop solves.
    pub htm_ms: f64,
    /// z-domain model construction and evaluation.
    pub zdomain_ms: f64,
    /// Behavioral simulation runs.
    pub sim_ms: f64,
    /// Spectral estimation on simulated records.
    pub spectral_ms: f64,
}

/// The full corpus run.
#[derive(Debug, Clone)]
pub struct XcheckReport {
    /// Corpus name (`"default"`, `"quick"`).
    pub corpus: String,
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioReport>,
    /// Per-stack wall-clock (not digested, not in the JSON report).
    pub timings: StackTimings,
}

impl XcheckReport {
    /// Number of `Mismatch` verdicts (exit-2 condition).
    pub fn mismatches(&self) -> usize {
        self.iter_checks()
            .filter(|c| matches!(c.verdict, Verdict::Mismatch { .. }))
            .count()
    }

    /// Number of `ToleratedDivergence` verdicts.
    pub fn tolerated(&self) -> usize {
        self.iter_checks()
            .filter(|c| matches!(c.verdict, Verdict::ToleratedDivergence { .. }))
            .count()
    }

    /// Number of `Agree` verdicts.
    pub fn agreements(&self) -> usize {
        self.iter_checks()
            .filter(|c| matches!(c.verdict, Verdict::Agree))
            .count()
    }

    /// Total comparisons.
    pub fn total_checks(&self) -> usize {
        self.iter_checks().count()
    }

    fn iter_checks(&self) -> impl Iterator<Item = &CheckResult> {
        self.scenarios.iter().flat_map(|s| s.checks.iter())
    }

    /// Deterministic FNV-1a digest over every numerical result —
    /// corpus name, scenario names, check names/stacks, deviation bit
    /// patterns and verdicts. Timings are deliberately excluded, so the
    /// digest is invariant across machines and thread counts.
    pub fn digest(&self) -> String {
        let mut h = Fnv1a::new();
        h.write_str(&self.corpus);
        h.write_u64(self.scenarios.len() as u64);
        for sc in &self.scenarios {
            h.write_str(&sc.scenario);
            h.write_u64(sc.checks.len() as u64);
            for c in &sc.checks {
                h.write_str(c.check);
                h.write_str(c.stacks);
                h.write_f64(c.deviation);
                match c.verdict {
                    Verdict::Agree => h.write_u64(0),
                    Verdict::ToleratedDivergence { bound, reason } => {
                        h.write_u64(1);
                        h.write_f64(bound);
                        h.write_str(reason);
                    }
                    Verdict::Mismatch { stacks, values } => {
                        h.write_u64(2);
                        h.write_str(stacks);
                        h.write_f64(values.0);
                        h.write_f64(values.1);
                    }
                }
            }
        }
        h.finish_hex()
    }

    /// JSON rendering of the full report (timings excluded; the digest
    /// is embedded so consumers can verify determinism offline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"corpus\":\"{}\",\"digest\":\"{}\",\"agree\":{},\"tolerated\":{},\"mismatch\":{},\"scenarios\":[",
            self.corpus,
            self.digest(),
            self.agreements(),
            self.tolerated(),
            self.mismatches()
        );
        for (i, sc) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"checks\":[", sc.scenario);
            for (j, c) in sc.checks.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let (verdict, extra) = match c.verdict {
                    Verdict::Agree => ("agree", String::new()),
                    Verdict::ToleratedDivergence { bound, reason } => (
                        "tolerated",
                        format!(",\"bound\":{bound:e},\"reason\":\"{reason}\""),
                    ),
                    Verdict::Mismatch { stacks, values } => (
                        "mismatch",
                        format!(
                            ",\"between\":\"{stacks}\",\"values\":[{:e},{:e}]",
                            values.0, values.1
                        ),
                    ),
                };
                let _ = write!(
                    out,
                    "{{\"check\":\"{}\",\"stacks\":\"{}\",\"deviation\":{:e},\"verdict\":\"{verdict}\"{extra}}}",
                    c.check, c.stacks, c.deviation
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for sc in &self.scenarios {
            let _ = writeln!(out, "scenario {}", sc.scenario);
            for c in &sc.checks {
                let verdict = match c.verdict {
                    Verdict::Agree => "agree".to_string(),
                    Verdict::ToleratedDivergence { bound, reason } => {
                        format!("tolerated (bound {bound:.2e}: {reason})")
                    }
                    Verdict::Mismatch { stacks, values } => {
                        format!("MISMATCH {stacks}: {:.6e} vs {:.6e}", values.0, values.1)
                    }
                };
                let _ = writeln!(
                    out,
                    "  {:<34} {:<30} dev {:>9.2e}  {}",
                    c.check, c.stacks, c.deviation, verdict
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XcheckReport {
        XcheckReport {
            corpus: "test".into(),
            scenarios: vec![ScenarioReport {
                scenario: "s1".into(),
                checks: vec![
                    CheckResult {
                        check: "a",
                        stacks: "x vs y",
                        deviation: 1e-12,
                        verdict: Verdict::Agree,
                    },
                    CheckResult {
                        check: "b",
                        stacks: "x vs z",
                        deviation: 1e-5,
                        verdict: Verdict::ToleratedDivergence {
                            bound: 1e-4,
                            reason: "tail",
                        },
                    },
                ],
            }],
            timings: StackTimings::default(),
        }
    }

    #[test]
    fn digest_ignores_timings() {
        let mut a = sample();
        let d0 = a.digest();
        a.timings.sim_ms = 123.0;
        assert_eq!(a.digest(), d0);
        // ... but is sensitive to any numerical result.
        a.scenarios[0].checks[0].deviation = 2e-12;
        assert_ne!(a.digest(), d0);
    }

    #[test]
    fn json_excludes_timings_and_embeds_digest() {
        let mut a = sample();
        let j0 = a.to_json();
        a.timings.lambda_ms = 9.0;
        assert_eq!(a.to_json(), j0, "timings must not leak into the report");
        assert!(j0.contains(&a.digest()));
        assert!(j0.contains("\"verdict\":\"agree\""));
        assert!(j0.contains("\"reason\":\"tail\""));
    }

    #[test]
    fn counters_add_up() {
        let a = sample();
        assert_eq!(a.agreements(), 1);
        assert_eq!(a.tolerated(), 1);
        assert_eq!(a.mismatches(), 0);
        assert_eq!(a.total_checks(), 2);
    }
}
