//! Measurement machinery shared by the four workloads: timed legs,
//! traced legs with per-layer attribution read from the
//! `htmpll::obs` span timeline, and the disabled-site probes.

use htmpll::obs::{self, MetricKind, MetricSnapshot, Trace, TracePhase};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Obs filter of the untraced legs: every site compiled in but disabled.
pub const FILTER_OFF: &str = "off";
/// Obs filter of the traced leg: the existing debug tier (per-point
/// `trace`-tier sites stay off).
pub const FILTER_TRACED: &str = "debug";
/// Per-thread ring capacity of a traced leg's timeline (events).
const TRACE_CAPACITY: usize = 1 << 18;

/// Layers whose self time the traced run reports: the span targets of
/// the library plus `bench`, the spans this benchmark opens around each
/// public call (their self time is library work below any library span).
const LAYERS: [&str; 7] = ["bench", "core", "htm", "num", "par", "sim", "xcheck"];

/// What one timed stretch of a workload did.
#[derive(Debug, Default)]
pub struct Leg {
    /// Items completed.
    pub items: u64,
    /// Items that errored or failed their output check.
    pub failed: u64,
    /// Wall time of the stretch.
    pub wall: Duration,
    /// Latency samples in milliseconds, one per latency unit (an item,
    /// or one call where single items are not visible from outside).
    pub latencies_ms: Vec<f64>,
    /// Items per second of each round: a stretch of the leg that repeats
    /// the same amount of work (a pass over a ladder, one call, a fixed
    /// number of responses).
    pub round_rates: Vec<f64>,
    /// First few failure descriptions, for the log.
    pub problems: Vec<String>,
}

impl Leg {
    /// Items per second of wall time: the median round when the leg has
    /// three rounds or more (a stall on a shared host moves one round,
    /// not the result), else the whole leg.
    pub fn items_per_s(&self) -> f64 {
        if self.round_rates.len() >= 3 {
            quantile(&self.round_rates, 0.5)
        } else {
            self.items as f64 / self.wall.as_secs_f64().max(1e-9)
        }
    }

    /// Counts one failed item and keeps its description (bounded).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Result of the output checks that need extra runs after the timed legs
/// (1-vs-nproc digests, direct re-handling of served requests).
#[derive(Debug, Default)]
pub struct Checked {
    /// Items checked that were not already counted by a leg.
    pub extra_attempted: u64,
    /// Items that failed these checks.
    pub failed: u64,
    /// Failure descriptions.
    pub problems: Vec<String>,
}

impl Checked {
    /// Counts one failed check and keeps its description (bounded).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `(name, value, unit)` triples.
    pub values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }
}

/// One workload as the harness drives it. Every call into the library
/// happens in an implementation of this trait.
pub trait Workload {
    /// One set-up as a caller pays it before its first item: contexts,
    /// pools or a serve session, and one warm-up item.
    fn setup(&mut self, threads: usize) -> Result<(), String>;

    /// Runs items back to back at `threads` until `budget` has passed
    /// (at least one latency unit).
    fn leg(&mut self, threads: usize, budget: Duration) -> Leg;

    /// Output checks that need extra runs, over the most recent leg.
    fn final_checks(&mut self, nproc: usize) -> Checked;

    /// Runs, untimed, inputs that the library is known to get wrong and
    /// that the timed legs therefore leave out; returns one description
    /// per failure still present. Called after [`Workload::final_checks`].
    /// The failures are reported with every run but are not counted in
    /// its failed items.
    fn known_defects(&mut self, _threads: usize) -> Vec<String> {
        Vec::new()
    }

    /// The per-layer metrics only this workload exercises. `traced` is
    /// the traced leg; the most recent untraced leg is the workload's own
    /// state. Called after [`Workload::known_defects`]; checks made while
    /// measuring land in `checked`.
    fn owned_metrics(
        &mut self,
        traced: &TracedLeg,
        nproc: usize,
        out: &mut Metrics,
        checked: &mut Checked,
    );
}

/// Nearest-rank quantile of unsorted samples (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A traced leg: the leg itself plus what obs recorded during it.
pub struct TracedLeg {
    /// The leg's own counts and latencies.
    pub leg: Leg,
    /// Worker threads of the leg.
    pub threads: usize,
    /// Registry snapshot at the end of the leg (reset at its start).
    pub snapshot: Vec<MetricSnapshot>,
    /// Self time per span target, summed over threads, in ns.
    pub self_ns: BTreeMap<String, u64>,
    /// Time of the trace window on the driving thread not covered by any
    /// span, in ns.
    pub unattributed_ns: u64,
    /// Length of the trace window, in ns.
    pub window_ns: u64,
    /// Events shed by full rings (attribution is partial when nonzero).
    pub dropped: u64,
    /// Time inside `par` worker spans, summed over workers, in ns.
    pub worker_busy_ns: u64,
    /// Chunks a `par` worker took after its first.
    pub steals: u64,
}

impl TracedLeg {
    /// Counter value (or observation count) under an exact key.
    pub fn count(&self, key: &str) -> u64 {
        self.get(key).map_or(0, |m| m.count)
    }

    /// Median of a span in milliseconds.
    pub fn span_p50_ms(&self, key: &str) -> f64 {
        self.get(key)
            .filter(|m| m.kind == MetricKind::Span)
            .and_then(|m| m.p50)
            .map_or(0.0, |ns| ns / 1e6)
    }

    /// Total ns of every span whose key satisfies `pred`.
    pub fn span_total_ns(&self, pred: impl Fn(&str) -> bool) -> f64 {
        self.snapshot
            .iter()
            .filter(|m| m.kind == MetricKind::Span && pred(&m.key))
            .map(|m| m.sum)
            .sum()
    }

    fn get(&self, key: &str) -> Option<&MetricSnapshot> {
        self.snapshot.iter().find(|m| m.key == key)
    }
}

/// Runs one leg with obs at the debug tier and a timeline session open,
/// then attributes the window's time to layers. The trace is written
/// through the library's Chrome-trace and folded-stack exporters, the
/// counters through its JSON export, into `out_dir` under `tag`.
pub fn traced_leg(
    w: &mut dyn Workload,
    threads: usize,
    budget: Duration,
    out_dir: &std::path::Path,
    tag: &str,
) -> TracedLeg {
    obs::override_filter(FILTER_TRACED);
    obs::reset();
    obs::trace_start(TRACE_CAPACITY);
    let t0 = Instant::now();
    let leg = w.leg(threads, budget);
    let window_ns = t0.elapsed().as_nanos() as u64;
    let trace = obs::trace_stop();
    let snapshot = obs::snapshot();
    let obs_json = obs::export_json();
    obs::override_filter(FILTER_OFF);

    let folded = obs::flamegraph_folded(&trace);
    let self_ns = self_time_by_layer(&folded);
    let unattributed_ns = window_ns.saturating_sub(driving_thread_coverage(&trace));
    let (worker_busy_ns, steals) = par_worker_activity(&trace);
    let files = [
        (format!("{tag}.obs.json"), obs_json),
        (format!("{tag}.trace.json"), obs::chrome_trace_json(&trace)),
        (format!("{tag}.folded"), folded),
    ];
    for (name, body) in files {
        if let Err(e) = std::fs::write(out_dir.join(&name), body) {
            eprintln!("benchmark: could not write {name}: {e}");
        }
    }
    TracedLeg {
        leg,
        threads,
        snapshot,
        self_ns,
        unattributed_ns,
        window_ns,
        dropped: trace.dropped,
        worker_busy_ns,
        steals,
    }
}

/// Busy time and steals of `par` workers, read from their timeline spans
/// (`par.worker{..}` around each worker's life in a map, one
/// `par.chunk{..}` per grab), which every `par` map path records; the
/// `par.worker_busy_ns` and `par.steals` registry sites are absent from
/// the cancellable maps that analysis and exploration use.
fn par_worker_activity(trace: &Trace) -> (u64, u64) {
    // Per thread: (worker span start, chunks grabbed so far).
    let mut open: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let (mut busy, mut steals) = (0u64, 0u64);
    for e in trace.events.iter().filter(|e| e.cat == "par") {
        match e.phase {
            TracePhase::Begin if e.name.starts_with("worker{") => {
                open.insert(e.tid, (e.ts_ns, 0));
            }
            TracePhase::Begin if e.name.starts_with("chunk{") => {
                if let Some((_, chunks)) = open.get_mut(&e.tid) {
                    *chunks += 1;
                }
            }
            TracePhase::End if e.name.starts_with("worker{") => {
                if let Some((start, chunks)) = open.remove(&e.tid) {
                    busy += e.ts_ns.saturating_sub(start);
                    steals += chunks.saturating_sub(1);
                }
            }
            _ => {}
        }
    }
    (busy, steals)
}

/// Sums folded-stack self time by the target of each stack's leaf frame
/// (`target.name` → `target`).
fn self_time_by_layer(folded: &str) -> BTreeMap<String, u64> {
    let mut by_layer = BTreeMap::new();
    for line in folded.lines() {
        let Some((stack, ns)) = line.rsplit_once(' ') else {
            continue;
        };
        let leaf = stack.rsplit(';').next().unwrap_or(stack);
        let layer = leaf.split('.').next().unwrap_or(leaf);
        *by_layer.entry(layer.to_string()).or_insert(0) += ns.parse::<u64>().unwrap_or(0);
    }
    by_layer
}

/// Time the driving thread spent inside outermost spans. The driving
/// thread is the one that recorded the window's first event: every leg
/// opens a `bench` span on its calling thread before anything else.
fn driving_thread_coverage(trace: &Trace) -> u64 {
    let Some(tid) = trace.events.first().map(|e| e.tid) else {
        return 0;
    };
    let mut depth = 0usize;
    let mut opened = 0u64;
    let mut covered = 0u64;
    for e in trace.events.iter().filter(|e| e.tid == tid) {
        match e.phase {
            TracePhase::Begin => {
                if depth == 0 {
                    opened = e.ts_ns;
                }
                depth += 1;
            }
            TracePhase::End if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    covered += e.ts_ns.saturating_sub(opened);
                }
            }
            _ => {}
        }
    }
    covered
}

/// The metrics every workload reports from its own traced run: thread
/// scaling, tracing overhead, obs counts per item, and self time per
/// layer with the unattributed remainder.
pub fn generic_layer_metrics(
    traced: &TracedLeg,
    one_thread: &Leg,
    untraced: &Leg,
    out: &mut Metrics,
) {
    let items = traced.leg.items.max(1) as f64;
    let per_item = |key: &str| traced.count(key) as f64 / items;

    out.push(
        "par.speedup",
        ratio(untraced.items_per_s(), one_thread.items_per_s()),
        "ratio",
    );
    out.push(
        "par.utilization",
        ratio(
            traced.worker_busy_ns as f64,
            traced.threads as f64 * traced.window_ns as f64,
        ),
        "ratio",
    );
    out.push("par.tasks_per_item", per_item("par.tasks"), "count");
    out.push("par.steals_per_item", traced.steals as f64 / items, "count");
    out.push(
        "obs.overhead_pct",
        100.0 * (ratio(untraced.items_per_s(), traced.leg.items_per_s()) - 1.0),
        "%",
    );
    out.push(
        "core.lambda_evals_per_item",
        per_item("core.lambda.eval"),
        "count",
    );
    out.push(
        "htm.rank_one_solves_per_item",
        per_item("htm.closed_loop.rank_one"),
        "count",
    );
    out.push(
        "num.lu_factors_per_item",
        per_item("num.lu.factor"),
        "count",
    );
    out.push(
        "sim.rk4_steps_per_item",
        per_item("sim.engine.rk4_steps"),
        "count",
    );
    let plan_hits = traced.count("spectral.fft.plan_hits") as f64;
    let plan_builds = traced.count("spectral.fft.plan_builds") as f64;
    out.push(
        "spectral.fft_plan_hit_rate",
        ratio(plan_hits, plan_hits + plan_builds),
        "ratio",
    );
    let hits = (traced.count("core.sweep.dense_cache.hit")
        + traced.count("core.sweep.lambda_cache.hit")) as f64;
    let misses = (traced.count("core.sweep.dense_cache.miss")
        + traced.count("core.sweep.lambda_cache.miss")) as f64;
    out.push(
        "core.sweep_cache.hit_rate",
        ratio(hits, hits + misses),
        "ratio",
    );
    out.push(
        "core.sweep_cache.evictions_per_item",
        per_item("core.sweep.cache_evictions"),
        "count",
    );
    for layer in LAYERS {
        let ns = traced.self_ns.get(layer).copied().unwrap_or(0) as f64;
        out.push(
            format!("layer.{layer}.self_ms_per_item"),
            ns / 1e6 / items,
            "ms",
        );
    }
    out.push(
        "layer.unattributed_pct",
        100.0 * ratio(traced.unattributed_ns as f64, traced.window_ns as f64),
        "%",
    );
}

/// Per-call cost of a disabled obs counter site and of a fault-injection
/// check with no plan installed, in ns (obs must be off when called).
pub fn disabled_site_probes(out: &mut Metrics) {
    const CALLS: u64 = 20_000_000;
    let t0 = Instant::now();
    for i in 0..CALLS {
        htmpll::obs::counter!("bench", "disabled_probe").add(black_box(i) & 1);
    }
    out.push(
        "obs.disabled_site_ns",
        t0.elapsed().as_nanos() as f64 / CALLS as f64,
        "ns",
    );
    let t0 = Instant::now();
    let mut fired = 0u64;
    for i in 0..CALLS {
        fired += u64::from(htmpll::fault::fires(black_box("sweep.nan"), black_box(i)));
    }
    black_box(fired);
    out.push(
        "fault.disabled_check_ns",
        t0.elapsed().as_nanos() as f64 / CALLS as f64,
        "ns",
    );
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
