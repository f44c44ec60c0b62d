//! Chaos-harness integration tests. Each replay carries its fault plan
//! in its own serve context, so the tests here run concurrently (the
//! default) without seeing each other's faults.
//!
//! [`run_chaos`]: htmpll::service::run_chaos

use htmpll::service::{build_corpus, default_plan, run_chaos, ChaosOptions};

/// The acceptance gate: the default seeded plan over the seeded corpus
/// produces zero invariant violations — the process survives every
/// injected pivot failure, handler panic, malformed envelope, and
/// cache-eviction storm; responses stay in order; output is
/// thread-count invariant; unfaulted requests match the fault-free
/// baseline byte-for-byte.
#[test]
fn default_plan_replay_has_zero_violations() {
    let report = run_chaos(&ChaosOptions {
        requests: 24,
        ..ChaosOptions::default()
    })
    .expect("chaos run");
    assert!(
        report.ok(),
        "invariant violations:\n{}",
        report.render_table()
    );
    assert_eq!(report.corpus_lines, 24);
    assert!(
        report.faulted_requests > 0,
        "the default plan must select some victims"
    );
    assert!(
        report.compared > 0,
        "the default plan must leave some requests clean to compare"
    );
}

/// A plan that only corrupts envelopes (no scoped value faults): every
/// non-corrupted line must match the baseline, and the corrupted set is
/// predicted exactly by the plan.
#[test]
fn malformed_only_plan_keeps_every_other_line_identical() {
    let report = run_chaos(&ChaosOptions {
        requests: 16,
        workers: 3,
        plan: Some("seed=7;serve.malformed=every:5".to_string()),
        ..ChaosOptions::default()
    })
    .expect("chaos run");
    assert!(report.ok(), "{}", report.render_table());
    assert_eq!(report.faulted_requests, 0);
    assert_eq!(report.compared + report.malformed_injected, 16);
}

/// The corpus itself is deterministic and mixes the shapes the harness
/// depends on: JSON requests with line-index ids, malformed-but-JSON
/// lines, raw garbage, and exact duplicates of earlier specs.
#[test]
fn corpus_is_deterministic_and_mixed() {
    let a = build_corpus(40);
    let b = build_corpus(40);
    assert_eq!(a, b);
    assert_eq!(a.len(), 40);
    assert!(a.iter().any(|l| !l.starts_with('{')), "raw garbage present");
    assert!(a.iter().any(|l| l.contains("\"command\":\"nonsense\"")));
    // Line 7 duplicates line 0's spec under a different id.
    assert_eq!(
        a[0].replace("\"id\":0", ""),
        a[7].replace("\"id\":7", ""),
        "duplicate pair shares the canonical spec"
    );
    // The default plan is stable for a given seed.
    assert_eq!(default_plan(42), default_plan(42));
    assert_ne!(default_plan(42), default_plan(43));
}
