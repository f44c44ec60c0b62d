//! End-to-end benchmark of `htmpll`: four workloads (`analyze`,
//! `explore`, `serve`, `xcheck`) that drive the library's public API in
//! one process, with a separate traced run for per-layer attribution.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload analyze --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of `BENCHMARK.json`,
//! `--trace 1` its per-layer metrics; the last stdout line is one JSON
//! object `{"correct","attempted","failed","metrics"}`. `--smoke` runs
//! every workload at toy size in both modes and checks that every metric
//! prints with its unit and every output check passes. See
//! `benchmark/README.md` for the load models and metric definitions.

mod analyze;
mod explore;
mod harness;
mod serve;
mod xcheck;

use harness::{
    disabled_site_probes, generic_layer_metrics, peak_rss_mb, quantile, traced_leg, Checked, Leg,
    Metrics, Workload, FILTER_OFF,
};
use htmpll::obs::{self, JsonValue};
use htmpll::service::json::{num, str_lit};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The workloads, in the order the smoke test runs them.
const WORKLOADS: [&str; 4] = ["analyze", "explore", "serve", "xcheck"];
/// Set-up probes per untraced run (their median is `setup_s`).
const SETUP_PROBES: usize = 11;
/// Latency samples a run needs before its p99 is reported.
const P99_MIN_SAMPLES: usize = 1000;
/// Directory (under the working directory) for trace and obs exports.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Size {
    /// The benchmark's workloads.
    Full,
    /// A reduced pass: the smoke test, and the per-layer metrics a traced
    /// run takes from workloads other than its own.
    Toy,
}

fn make(name: &str, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
    Ok(match (name, size) {
        ("analyze", _) => Box::new(analyze::Analyze::new(seed)),
        ("explore", Size::Full) => Box::new(explore::Explore::new(seed, 512)),
        ("explore", Size::Toy) => Box::new(explore::Explore::new(seed, 256)),
        ("serve", Size::Full) => Box::new(serve::Serve::new(seed, 600)),
        ("serve", Size::Toy) => Box::new(serve::Serve::new(seed, 200)),
        ("xcheck", Size::Full) => Box::new(xcheck::Xcheck::new("default")),
        ("xcheck", Size::Toy) => Box::new(xcheck::Xcheck::new("quick")),
        (other, _) => return Err(format!("unknown workload `{other}`")),
    })
}

/// Everything one run produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Printed in the table but not part of the result line.
    table_only: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
    /// Failures of the known-defect probes (not counted in `failed`).
    known_defects: Vec<String>,
}

impl Outcome {
    fn add_leg(&mut self, leg: &Leg) {
        self.attempted += leg.items;
        self.failed += leg.failed;
        self.problems.extend(leg.problems.iter().cloned());
    }

    fn absorb(&mut self, checked: Checked) {
        self.attempted += checked.extra_attempted;
        self.failed += checked.failed;
        self.problems.extend(checked.problems);
    }

    /// The output checks of `w` that follow its legs: those that need
    /// extra runs, then the known-defect probes.
    fn check(&mut self, w: &mut dyn Workload, nproc: usize) {
        self.absorb(w.final_checks(nproc));
        self.known_defects.extend(w.known_defects(nproc));
    }
}

/// Median first set-up time in seconds over [`SETUP_PROBES`] fresh
/// processes. Each probe is this program run with `--setup-probe`: it
/// times its own first set-up of the workload (lazy statics, pools and
/// contexts, one warm-up item) from the start of its `main`, so the
/// figure is the one-time work a caller pays before its first item.
fn setup_s(name: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--setup-probe", name, "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(secs) if out.status.success() => times.push(secs),
            _ => return Err(format!("set-up probe failed ({}): {text}", out.status)),
        }
    }
    Ok(quantile(&times, 0.5))
}

/// Untraced run: set-up probes, an in-process warm-up, one timed leg at
/// `nproc`, output checks.
fn run_untraced(name: &str, seed: u64, budget: Duration, size: Size) -> Result<Outcome, String> {
    let nproc = htmpll::par::available_threads();
    let setup_s = setup_s(name, seed)?;
    let mut w = make(name, seed, size)?;
    w.setup(nproc)?;
    let leg = w.leg(nproc, budget);
    let mut out = Outcome::default();
    out.add_leg(&leg);
    out.check(w.as_mut(), nproc);
    let m = &mut out.metrics;
    m.push("setup_s", setup_s, "s");
    m.push("items_per_s", leg.items_per_s(), "1/s");
    m.push("p50_ms", quantile(&leg.latencies_ms, 0.50), "ms");
    m.push(
        "peak_rss_mb",
        peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
        "MB",
    );
    // p99 only where at least ten samples lie beyond it; it is printed,
    // not gated (explore and xcheck never have that many samples, and the
    // result carries the same metrics for every workload).
    out.table_only
        .push(("latency_samples", leg.latencies_ms.len() as f64, "count"));
    if leg.latencies_ms.len() >= P99_MIN_SAMPLES {
        out.table_only
            .push(("p99_ms", quantile(&leg.latencies_ms, 0.99), "ms"));
    }
    Ok(out)
}

/// Traced run: legs at one thread, traced at `nproc`, and untraced at
/// `nproc`; the per-layer metrics of this workload from them, and those
/// of the layers it does not exercise from toy passes of their owners.
fn run_traced(name: &str, seed: u64, budget: Duration, size: Size) -> Result<Outcome, String> {
    let nproc = htmpll::par::available_threads();
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let leg_budget = budget / 3;
    let mut w = make(name, seed, size)?;
    w.setup(nproc)?;
    let one = w.leg(1, leg_budget);
    let traced = traced_leg(w.as_mut(), nproc, leg_budget, &out_dir, name);
    let untraced = w.leg(nproc, leg_budget);
    if traced.dropped > 0 {
        eprintln!(
            "{name}: {} trace events shed; self times are partial",
            traced.dropped
        );
    }

    let mut out = Outcome::default();
    for leg in [&one, &traced.leg, &untraced] {
        out.add_leg(leg);
    }
    out.check(w.as_mut(), nproc);
    generic_layer_metrics(&traced, &one, &untraced, &mut out.metrics);
    let mut checked = Checked::default();
    w.owned_metrics(&traced, nproc, &mut out.metrics, &mut checked);
    out.absorb(checked);

    for owner in WORKLOADS.into_iter().filter(|&o| o != name) {
        let mut x = make(owner, seed, Size::Toy)?;
        x.setup(nproc)?;
        let tag = format!("{name}.toy-{owner}");
        let t = traced_leg(
            x.as_mut(),
            nproc,
            Duration::from_millis(300),
            &out_dir,
            &tag,
        );
        out.add_leg(&t.leg);
        out.check(x.as_mut(), nproc);
        let mut checked = Checked::default();
        x.owned_metrics(&t, nproc, &mut out.metrics, &mut checked);
        out.absorb(checked);
    }
    disabled_site_probes(&mut out.metrics);
    Ok(out)
}

/// The metric names and units `BENCHMARK.json` declares.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn load_declared(path: &Path) -> Result<Declared, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = obs::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .ok_or(format!("BENCHMARK.json: no `{key}` list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("BENCHMARK.json: `{key}` entry without name/unit"))
            })
            .collect()
    };
    Ok(Declared {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Differences between the metrics produced and those declared.
fn disagreements(metrics: &Metrics, declared: &[(String, String)]) -> Vec<String> {
    let mut errs = Vec::new();
    for (name, unit) in declared {
        match metrics.values.iter().find(|(n, _, _)| n == name) {
            None => errs.push(format!("missing metric `{name}`")),
            Some((_, _, u)) if u != unit => {
                errs.push(format!("metric `{name}` has unit `{u}`, declared `{unit}`"))
            }
            Some((_, v, _)) if !v.is_finite() => errs.push(format!("metric `{name}` is {v}")),
            _ => {}
        }
    }
    for (name, _, _) in &metrics.values {
        if declared.iter().filter(|(n, _)| n == name).count() != 1 {
            errs.push(format!("metric `{name}` is not declared exactly once"));
        }
    }
    errs
}

/// The commit of the checkout when it is a git work tree.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the library sources (root manifest, lock file, `src/`
/// and every `crates/*/src/`), path and contents in sorted order: it
/// names the code measured when the checkout is not a git work tree.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    if let Ok(crates) = std::fs::read_dir("crates") {
        for krate in crates.flatten() {
            walk(&krate.path().join("src"), &mut files);
        }
    }
    files.sort();
    let mut h = htmpll::num::hash::Fnv1a::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write_str(&f.to_string_lossy());
            h.write(&bytes);
        }
    }
    h.finish_hex()
}

/// One provenance line: where and how the numbers were produced.
fn provenance(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = htmpll::par::available_threads();
    let fields = [
        ("workload", str_lit(workload)),
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        ("threads", nproc.to_string()),
        (
            "simd",
            str_lit(&format!("{:?}", htmpll::num::simd::active_level()).to_lowercase()),
        ),
        ("rustc", str_lit(env!("BENCH_RUSTC_VERSION"))),
        (
            "commit",
            str_lit(&git_commit().unwrap_or_else(|| "not a git checkout".to_string())),
        ),
        ("source_fnv1a", str_lit(&source_digest())),
        (
            "obs_filter",
            str_lit(if trace {
                harness::FILTER_TRACED
            } else {
                FILTER_OFF
            }),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", str_lit(k)))
        .collect();
    format!("{{\"provenance\":{{{}}}}}", body.join(","))
}

/// The contract's result object.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .values
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                str_lit(name),
                num(*value),
                str_lit(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

fn run(
    name: &str,
    seed: u64,
    budget: Duration,
    trace: bool,
    size: Size,
) -> Result<Outcome, String> {
    if trace {
        run_traced(name, seed, budget, size)
    } else {
        run_untraced(name, seed, budget, size)
    }
}

/// Prints the human table: every metric with its unit, the error rate
/// and the failures.
fn print_table(name: &str, out: &Outcome) {
    let rows = out
        .metrics
        .values
        .iter()
        .map(|(m, v, u)| (m.as_str(), *v, *u));
    for (metric, value, unit) in rows.chain(out.table_only.iter().copied()) {
        println!("{name:>8}  {metric:<36} {value:>14.6} {unit}");
    }
    println!(
        "{name:>8}  {:<36} {:>14.6} ratio  ({} failed of {} attempted)",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        println!("{name:>8}  failure: {p}");
    }
    for d in &out.known_defects {
        println!("{name:>8}  known library defect (not in error_rate): {d}");
    }
}

/// Prints the table, the provenance line and the result line (last).
fn print(name: &str, seed: u64, trace: bool, out: &Outcome) {
    print_table(name, out);
    println!("{}", provenance(name, seed, trace));
    println!("{}", result_line(out));
}

/// Toy-size pass over every workload in both modes.
fn smoke(declared: &Declared, seed: u64) -> bool {
    let mut ok = true;
    for name in WORKLOADS {
        for trace in [false, true] {
            let want = if trace {
                &declared.per_layer
            } else {
                &declared.end_to_end
            };
            let verdict = match run(name, seed, Duration::from_millis(600), trace, Size::Toy) {
                Ok(out) => {
                    print_table(name, &out);
                    let mut errs = disagreements(&out.metrics, want);
                    errs.extend(out.problems.iter().cloned());
                    errs.extend(
                        out.known_defects
                            .iter()
                            .map(|d| format!("known defect: {d}")),
                    );
                    if out.failed > 0 {
                        errs.push(format!("{} of {} items failed", out.failed, out.attempted));
                    }
                    errs
                }
                Err(e) => vec![e],
            };
            println!(
                "smoke {name:<8} trace={} {}",
                u8::from(trace),
                if verdict.is_empty() { "ok" } else { "FAILED" }
            );
            for e in &verdict {
                println!("    {e}");
            }
            ok &= verdict.is_empty();
        }
    }
    ok
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Time this process's first set-up of the workload and print it.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--setup-probe" => {
                args.workload = value;
                args.setup_probe = true;
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.smoke && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let code = match parse_args().and_then(|args| {
        obs::override_filter(FILTER_OFF);
        if args.setup_probe {
            let mut w = make(&args.workload, args.seed, Size::Full)?;
            w.setup(htmpll::par::available_threads())?;
            println!("{}", started.elapsed().as_secs_f64());
            return Ok(0);
        }
        let declared = load_declared(Path::new("BENCHMARK.json"))?;
        if args.smoke {
            return Ok(if smoke(&declared, args.seed) { 0 } else { 1 });
        }
        let budget = Duration::from_secs_f64(args.seconds);
        let out = run(&args.workload, args.seed, budget, args.trace, Size::Full)?;
        let want = if args.trace {
            &declared.per_layer
        } else {
            &declared.end_to_end
        };
        let errs = disagreements(&out.metrics, want);
        if !errs.is_empty() {
            return Err(format!(
                "metrics disagree with BENCHMARK.json: {}",
                errs.join("; ")
            ));
        }
        print(&args.workload, args.seed, args.trace, &out);
        Ok(0)
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}
