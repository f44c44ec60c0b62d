//! The trace session is process-global: any par map running on another
//! test thread while it is open records worker spans that straddle its
//! start or stop. This test therefore lives alone in its own binary,
//! where nothing else can run concurrently.

use htmpll_par::{par_map, ThreadBudget};

#[test]
fn trace_timeline_has_worker_and_chunk_events() {
    htmpll_obs::trace_start(1 << 14);
    let xs: Vec<usize> = (0..64).collect();
    let _ = par_map(ThreadBudget::Fixed(2), &xs, |_, &x| x + 1);
    let t = htmpll_obs::trace_stop();
    let par_events: Vec<&htmpll_obs::TraceEvent> =
        t.events.iter().filter(|e| e.cat == "par").collect();
    assert!(
        par_events.iter().any(|e| e.name.starts_with("worker{")),
        "missing worker timeline: {par_events:?}"
    );
    assert!(
        par_events.iter().any(|e| e.name.starts_with("chunk{")),
        "missing chunk timeline: {par_events:?}"
    );
    // Every worker begin has a matching end.
    let begins = par_events
        .iter()
        .filter(|e| e.name.starts_with("worker{") && e.phase == htmpll_obs::TracePhase::Begin)
        .count();
    let ends = par_events
        .iter()
        .filter(|e| e.name.starts_with("worker{") && e.phase == htmpll_obs::TracePhase::End)
        .count();
    assert_eq!(begins, ends);
    assert!(begins >= 1);
}
