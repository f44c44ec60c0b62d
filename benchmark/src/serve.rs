//! `serve`: one client keeps a fixed window of requests outstanding
//! against an in-process `serve_lines` session, over OS pipes, with a
//! writer and a reader thread.

use crate::harness::{quantile, ratio, Checked, Leg, Metrics, TracedLeg, Workload};
use htmpll::num::rng::Rng;
use htmpll::obs;
use htmpll::requests::Request;
use htmpll::service::{envelope, handle, serve_lines, ServeOptions, ServeSummary, ServiceCtx};
use std::collections::BTreeMap;
use std::f64::consts::PI;
use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests outstanding at once.
const WINDOW: usize = 8;
/// Commands of the mix. No measured traffic stands behind any weighting
/// of them, so the mix weighs them equally: every cycle sends each
/// command `PER_COMMAND` times as a hot (repeated) request and as many
/// times as a distinct one. The hot and distinct halves are the
/// repeated-vs-distinct split serve is measured on.
const COMMANDS: [&str; 5] = ["analyze", "bode", "spur", "sweep", "step"];
/// Requests of each command per cycle, in each half.
const PER_COMMAND: usize = 10;
/// Requests per cycle of the schedule, in a seeded order: the mix (and
/// its cost) is the same in every cycle and for every seed.
const CYCLE: usize = 2 * COMMANDS.len() * PER_COMMAND;
/// Hot specs per command; 40 in all, far fewer than the 1024-entry
/// response cache.
const HOT_PER_COMMAND: usize = 8;
/// Most distinct requests re-handled directly by the byte-identity check.
const CHECKED_DISTINCT: usize = 128;
/// Responses per throughput round (one cycle).
const ROUND: usize = CYCLE;

/// One request spec: its command and the members of its `params`.
#[derive(Debug, Clone)]
struct Spec {
    command: &'static str,
    params: String,
}

/// Where a request sits in its cycle: its command (an index into
/// [`COMMANDS`]), and its rank among the cycle's requests of that
/// command in its half.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cmd: usize,
    rank: usize,
    of: usize,
}

/// The slots of one cycle, hot half first: `(slot, hot)`.
fn cycle_slots() -> Vec<(Slot, bool)> {
    [true, false]
        .into_iter()
        .flat_map(|hot| {
            (0..COMMANDS.len()).flat_map(move |cmd| {
                (0..PER_COMMAND).map(move |rank| {
                    let slot = Slot {
                        cmd,
                        rank,
                        of: PER_COMMAND,
                    };
                    (slot, hot)
                })
            })
        })
        .collect()
}

/// A design spec and its crossover ω_UG in rad/s. The slot's rank fixes
/// the ω_UG/ω₀ stratum (log-spaced over 0.03–0.3; the seed jitters
/// within it) and whether the design is normalized or physical (MHz
/// reference), so each command's cost per cycle is about the same for
/// every seed: a `step` request, for one, simulates about 1.6/(ω_UG/ω₀)
/// reference periods, which varies by at most a factor 1.26 within a
/// stratum.
fn design_params(rng: &mut Rng, slot: Slot) -> (String, f64) {
    let ratio = 0.03 * 10f64.powf((slot.rank as f64 + rng.uniform()) / slot.of as f64);
    let spread = rng.range(3.0, 6.0);
    if slot.rank.is_multiple_of(2) {
        (format!("\"ratio\":{ratio},\"spread\":{spread}"), 1.0)
    } else {
        let fref = rng.range(5e6, 50e6);
        let bw = ratio * fref;
        let spec = format!(
            "\"fref\":{fref},\"n\":{},\"kvco\":{},\"bw\":{bw},\"spread\":{spread}",
            rng.range(8.0, 128.0).round(),
            rng.range(1e8, 1e9),
        );
        (spec, 2.0 * PI * bw)
    }
}

/// The request for `slot`, drawn from stream `stream` of `seed`.
fn spec(seed: u64, stream: u64, slot: Slot) -> Spec {
    let mut rng = Rng::for_stream(seed, stream);
    let command = COMMANDS[slot.cmd];
    let (design, omega_ug) = design_params(&mut rng, slot);
    let params = match command {
        "analyze" => design,
        "bode" => {
            let lambda = if slot.rank % 4 < 2 {
                ",\"lambda\":true"
            } else {
                ""
            };
            format!("{design},\"points\":31{lambda}")
        }
        "spur" => format!(
            "{design},\"leakage-frac\":{},\"kmax\":4",
            rng.range(1e-4, 1e-2)
        ),
        "sweep" => {
            let from = rng.range(0.03, 0.1);
            format!(
                "\"from\":{from},\"to\":{},\"points\":4",
                from + rng.range(0.05, 0.15)
            )
        }
        // `until` is in seconds. 10/ω_UG covers the lock transient; the
        // normalized default of 40/ω_UG is four times the work, most of it
        // on a settled loop, and would leave few requests per run.
        _ => format!("{design},\"until\":{},\"points\":20", 10.0 / omega_ug),
    };
    Spec { command, params }
}

/// A serve request line. The one-thread leg pins every request that
/// takes a thread budget to one thread, so nothing runs in parallel.
fn request_line(id: i64, spec: &Spec, one_thread: bool) -> String {
    let threads = if one_thread && spec.command != "step" {
        ",\"threads\":1"
    } else {
        ""
    };
    format!(
        "{{\"id\":{id},\"command\":\"{}\",\"params\":{{{}{threads}}}}}",
        spec.command, spec.params
    )
}

/// One session as the client saw it.
#[derive(Default)]
struct Session {
    /// Timed request lines; line `k` carries id `k + 1`.
    lines: Vec<String>,
    /// Command of each line and whether it came from the distinct stream.
    kinds: Vec<(&'static str, bool)>,
    responses: Vec<String>,
    latencies_ms: Vec<f64>,
    /// Arrival of each timed response, in seconds after the warm-up.
    arrivals_s: Vec<f64>,
    summary: Option<ServeSummary>,
    /// Warm-up answered until the last timed response.
    wall: Duration,
}

/// Direct re-handling results of the byte-identity check.
#[derive(Default)]
struct Direct {
    handle_ms: BTreeMap<&'static str, Vec<f64>>,
    render_us: Vec<f64>,
    wait_ms: Vec<f64>,
}

/// The serve workload.
pub struct Serve {
    seed: u64,
    /// Timed requests per session.
    session_requests: usize,
    hot: Vec<Spec>,
    /// Requests generated so far in this session: request `n` is a pure
    /// function of `(seed, n)`, so every session sends the same stream.
    generated: u64,
    /// Slots of the current cycle, shuffled: `(slot, hot)`.
    cycle: Vec<(Slot, bool)>,
    last: Session,
    direct: Direct,
}

impl Serve {
    /// A request mix seeded by `seed`, served in sessions of
    /// `session_requests` requests (a whole number of rounds).
    pub fn new(seed: u64, session_requests: usize) -> Serve {
        let hot = (0..COMMANDS.len() * HOT_PER_COMMAND)
            .map(|k| {
                let slot = Slot {
                    cmd: k / HOT_PER_COMMAND,
                    rank: k % HOT_PER_COMMAND,
                    of: HOT_PER_COMMAND,
                };
                spec(seed, (1 << 62) + k as u64, slot)
            })
            .collect();
        Serve {
            seed,
            session_requests,
            hot,
            generated: 0,
            cycle: Vec::new(),
            last: Session::default(),
            direct: Direct::default(),
        }
    }

    /// The next request's spec and whether it is from the distinct
    /// stream.
    fn next_spec(&mut self) -> (Spec, bool) {
        let n = self.generated;
        self.generated += 1;
        let slot = n as usize % CYCLE;
        if slot == 0 {
            // A seeded Fisher–Yates shuffle of the cycle's slots.
            let mut rng = Rng::for_stream(self.seed ^ 0x5e7e_5e7e, n / CYCLE as u64);
            self.cycle = cycle_slots();
            for i in (1..self.cycle.len()).rev() {
                self.cycle
                    .swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        match self.cycle[slot] {
            (slot, true) => {
                let pick =
                    Rng::for_stream(self.seed ^ 0x407, n).next_u64() as usize % HOT_PER_COMMAND;
                (self.hot[slot.cmd * HOT_PER_COMMAND + pick].clone(), false)
            }
            (slot, false) => (spec(self.seed, n, slot), true),
        }
    }

    /// Runs one session at `workers`: one warm-up request, then (when
    /// `requests > 0`) every hot spec once, so that timed hot requests
    /// hit the response cache and every timed cycle does the same work,
    /// then `requests` timed requests, then EOF.
    fn session(
        &mut self,
        workers: usize,
        requests: usize,
        one_thread: bool,
    ) -> Result<Session, String> {
        let io = |e: std::io::Error| format!("pipe: {e}");
        let (in_rx, in_tx) = std::io::pipe().map_err(io)?;
        let (out_rx, out_tx) = std::io::pipe().map_err(io)?;
        let (tok_tx, tok_rx) = mpsc::sync_channel::<()>(WINDOW);
        let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
        let (warm_tx, warm_rx) = mpsc::channel::<Instant>();
        let opts = ServeOptions {
            workers,
            ..ServeOptions::default()
        };
        // Warm-up: one fixed `analyze` request with id 0, then the hot
        // specs with ids -1, -2, … (timed requests count up from 1).
        let warm_slot = Slot {
            cmd: 0,
            rank: 0,
            of: 1,
        };
        let mut warm_lines = vec![request_line(0, &spec(0, u64::MAX, warm_slot), one_thread)];
        if requests > 0 {
            warm_lines.extend(
                self.hot
                    .iter()
                    .enumerate()
                    .map(|(k, spec)| request_line(-(k as i64 + 1), spec, one_thread)),
            );
        }
        let warm_count = warm_lines.len();
        let mut session = Session::default();
        self.generated = 0;
        for id in 1..=requests as i64 {
            let (spec, distinct) = self.next_spec();
            session.lines.push(request_line(id, &spec, one_thread));
            session.kinds.push((spec.command, distinct));
        }

        std::thread::scope(|s| -> Result<(), String> {
            let lines = &session.lines;
            // The writer owns the request pipe: it closes (EOF) whenever
            // the writer returns, which ends the session.
            let writer = s.spawn(move || -> Result<Instant, String> {
                let mut in_tx = in_tx;
                let mut write = |line: &str| {
                    in_tx
                        .write_all(format!("{line}\n").as_bytes())
                        .map_err(|e| format!("request write: {e}"))
                };
                for line in &warm_lines {
                    write(line)?;
                }
                let warm = warm_rx
                    .recv()
                    .map_err(|_| "serve ended before answering the warm-up".to_string())?;
                for line in lines {
                    if tok_tx.send(()).is_err() {
                        break;
                    }
                    let _ = sent_tx.send(Instant::now());
                    write(line)?;
                }
                Ok(warm)
            });
            let reader = s.spawn(move || {
                let mut responses = Vec::new();
                let mut latencies = Vec::new();
                let mut arrivals = Vec::new();
                for (k, line) in BufReader::new(out_rx).lines().enumerate() {
                    let Ok(line) = line else { break };
                    let now = Instant::now();
                    if k < warm_count {
                        if k + 1 == warm_count {
                            let _ = warm_tx.send(now);
                        }
                        continue;
                    }
                    if let Ok(sent) = sent_rx.recv() {
                        latencies.push((now - sent).as_secs_f64() * 1e3);
                    }
                    let _ = tok_rx.recv();
                    responses.push(line);
                    arrivals.push(now);
                }
                (responses, latencies, arrivals)
            });

            // The server runs on this (the calling) thread, under the span
            // the traced run attributes the session's time to.
            let served = {
                let _span = obs::span("bench", "serve_lines");
                let mut out = out_tx;
                serve_lines(BufReader::new(in_rx), &mut out, &opts)
            };
            let warm = writer
                .join()
                .map_err(|_| "client writer panicked".to_string())??;
            let (responses, latencies, arrivals) = reader
                .join()
                .map_err(|_| "client reader panicked".to_string())?;
            session.summary = Some(served?);
            session.arrivals_s = arrivals.iter().map(|t| (*t - warm).as_secs_f64()).collect();
            session.wall = arrivals.last().map_or(Duration::ZERO, |t| *t - warm);
            session.responses = responses;
            session.latencies_ms = latencies;
            Ok(())
        })?;
        Ok(session)
    }
}

impl Workload for Serve {
    /// Session start-up (context, pool, reader and dispatcher threads)
    /// until the warm-up request is answered.
    fn setup(&mut self, threads: usize) -> Result<(), String> {
        self.session(threads, 0, false).map(drop)
    }

    /// Sessions of the same request stream, back to back until `budget`
    /// has passed. Each starts a fresh `serve_lines` (fresh caches), so a
    /// faster host serves more sessions, not a longer one, and peak memory
    /// does not grow with speed.
    fn leg(&mut self, threads: usize, budget: Duration) -> Leg {
        let mut leg = Leg::default();
        let t0 = Instant::now();
        while leg.items == 0 || t0.elapsed() < budget {
            let session = match self.session(threads, self.session_requests, threads == 1) {
                Ok(s) => s,
                Err(e) => {
                    leg.items += 1;
                    leg.fail(e);
                    break;
                }
            };
            leg.items += session.lines.len() as u64;
            leg.wall += session.wall;
            // The first round of a session is its ramp-up (fresh caches
            // and heap) and runs slower than the rest; rounds start after it.
            let ends: Vec<f64> = session
                .arrivals_s
                .chunks_exact(ROUND)
                .map(|c| c[ROUND - 1])
                .collect();
            for w in ends.windows(2) {
                leg.round_rates.push(ROUND as f64 / (w[1] - w[0]));
            }
            for (k, (command, _)) in session.kinds.iter().enumerate() {
                let head = format!(
                    "{{\"schema\":\"plltool/v1\",\"id\":{},\"command\":\"{command}\",\"ok\":true",
                    k + 1
                );
                match session.responses.get(k) {
                    Some(r) if r.starts_with(&head) => {}
                    Some(r) => leg.fail(format!("line {}: {}", k + 1, &r[..r.len().min(200)])),
                    None => leg.fail(format!("line {} unanswered", k + 1)),
                }
            }
            leg.latencies_ms.extend_from_slice(&session.latencies_ms);
            self.last = session;
        }
        leg
    }

    /// Each hot spec's first request and a stride of distinct requests,
    /// re-handled directly: `handle` + `envelope` must reproduce the
    /// served line byte for byte.
    fn final_checks(&mut self, _nproc: usize) -> Checked {
        let mut checked = Checked::default();
        let s = &self.last;
        let distinct = s.kinds.iter().filter(|(_, d)| *d).count();
        let stride = (distinct / CHECKED_DISTINCT).max(8);
        let mut seen_hot = std::collections::BTreeSet::new();
        let mut nth_distinct = 0usize;
        let ctx = ServiceCtx::new();
        self.direct = Direct::default();
        for (k, (command, is_distinct)) in s.kinds.iter().enumerate() {
            let line = &s.lines[k];
            let sampled = if *is_distinct {
                nth_distinct += 1;
                (nth_distinct - 1).is_multiple_of(stride)
            } else {
                // The id prefix differs per line; the rest is the spec.
                let spec = line
                    .split_once(",\"command\"")
                    .map_or(line.as_str(), |(_, r)| r);
                seen_hot.insert(spec.to_string())
            };
            let Some(served) = s.responses.get(k).filter(|_| sampled) else {
                continue;
            };
            let (id, req) = match Request::from_json_line(line) {
                Ok(parsed) => parsed,
                Err(e) => {
                    checked.fail(format!("line {}: {e}", k + 1));
                    continue;
                }
            };
            let t0 = Instant::now();
            let resp = handle(&req, &ctx);
            let handle_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let direct = envelope(&resp, &id, None);
            self.direct.render_us.push(t1.elapsed().as_secs_f64() * 1e6);
            self.direct
                .handle_ms
                .entry(command)
                .or_default()
                .push(handle_ms);
            if *is_distinct {
                if let Some(lat) = s.latencies_ms.get(k) {
                    self.direct.wait_ms.push(lat - handle_ms);
                }
            }
            if direct != *served {
                checked.fail(format!(
                    "line {}: served envelope differs from direct",
                    k + 1
                ));
            }
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
        let parse_us: Vec<f64> = self
            .last
            .lines
            .iter()
            .map(|line| {
                let t0 = Instant::now();
                let parsed = Request::from_json_line(line);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(parsed.is_ok());
                us
            })
            .collect();
        out.push("requests.parse_us", quantile(&parse_us, 0.5), "us");
        for command in COMMANDS {
            let samples = self.direct.handle_ms.get(command).map_or(&[][..], |v| v);
            out.push(
                format!("service.handle_ms.{command}"),
                quantile(samples, 0.5),
                "ms",
            );
        }
        out.push(
            "service.render_us",
            quantile(&self.direct.render_us, 0.5),
            "us",
        );
        out.push("service.wait_ms", quantile(&self.direct.wait_ms, 0.5), "ms");
        let (hits, received, batches) = self.last.summary.as_ref().map_or((0, 0, 0), |s| {
            (s.response_cache_hits, s.received, s.batches)
        });
        out.push(
            "service.response_cache_hit_rate",
            ratio(hits as f64, received as f64),
            "ratio",
        );
        out.push(
            "service.mean_batch",
            ratio(received as f64, batches as f64),
            "count",
        );
    }
}
