//! The `serve-mixed-open` workload: an in-process `repro serve` (the dse
//! batch ops attached, two pool workers, a fresh cache) driven open loop
//! over one pipelined loopback connection.
//!
//! One sender thread writes each request at its due time on a seeded
//! Poisson schedule, whatever the replies are doing; one reader thread
//! matches reply groups to requests in order. Latency is timed from each
//! request's due time, so a stall also counts against the requests queued
//! behind it, and the sender's own lateness is reported.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tpe_dse::serve_ops::DEFAULT_MAX_POINTS;
use tpe_dse::{evaluate_slice, CycleModel, DseOps, EngineCache, SweepWorkload};
use tpe_engine::serve::{
    handle_request, parse_flat_object, query_batch, serve_with, JsonValue, ServeConfig,
};
use tpe_engine::{roster, EngineSpec, Evaluator, Precision, MODEL_SAMPLE_CAPS};
use tpe_obs::HistogramSnapshot;
use tpe_workloads::{LayerShape, NetworkModel};

use crate::outcome::Outcome;
use crate::rss_mib;
use crate::stats::{median, quantile, tail_percentile, windowed_quantile, Rng};
use crate::trace::Tracer;

/// Pool workers of the served instance.
const SERVER_THREADS: usize = 2;
/// The sampling seed every request carries.
const REQUEST_SEED: u64 = 42;
/// Slice filters of the `sweep`/`pareto` ops: one serial engine (seven
/// workloads, whole ResNet-18 included) and one dense engine.
const SLICE_FILTERS: [&str; 2] = [
    "OPT4E[EN-T]/28nm@2.00GHz,precision=w8",
    "OPT1(TPU)/28nm@1.50,precision=w8",
];
const PRECISIONS: [&str; 4] = ["W8", "W4", "W16", "W8xW4"];
const MODELS: [&str; 2] = ["ResNet18", "MobileNetV3"];
/// The mixed-precision preset, on the one serial engine it is served for.
const W4_MODEL: (&str, &str) = ("OPT4E[EN-T]/28nm@2.00GHz", "ResNet18-W4");
/// A reply later than this after its due time counts as failed on the
/// reference step.
const LATE_US: f64 = 1e6;
/// How long before a request's due time the sender stops sleeping and
/// spins.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// How far the traced split may sit from the client latency it explains.
pub const SPLIT_SLACK: f64 = 0.25;
/// Answered requests of each op class the split compares before its check
/// applies: a p50 of fewer moves with a handful of host stalls.
const SPLIT_MIN_SAMPLES: usize = 200;

/// The op class a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Engine,
    Layer,
    Model,
    Sweep,
    Pareto,
    /// A `layer` op on a shape not seen before, under the analytic cycle
    /// model: a cache insert beside the steady-state reads.
    Fresh,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Engine => "engine",
            Class::Layer => "layer",
            Class::Model => "model",
            Class::Sweep => "sweep",
            Class::Pareto => "pareto",
            Class::Fresh => "fresh",
        }
    }
}

/// One request: its wire line plus the fields the in-process layer probe
/// re-resolves.
#[derive(Debug, Clone)]
pub struct Request {
    pub line: String,
    pub class: Class,
    engine: String,
    precision: Option<&'static str>,
    layer: Option<LayerShape>,
    model: Option<&'static str>,
    filter: &'static str,
}

/// The request mix, modelled on `repro serve-smoke`'s batch: ~10% engine,
/// ~61% layer (W4/W8/W16/W8xW4), ~20% model (ResNet18-W4 included), 4%
/// sweep/pareto slices and 5% fresh analytic layers.
#[derive(Debug)]
pub struct Mix {
    engines: Vec<String>,
    layers: Vec<LayerShape>,
}

impl Default for Mix {
    fn default() -> Self {
        Self::new()
    }
}

impl Mix {
    pub fn new() -> Self {
        let layers = tpe_dse::space::default_workloads()
            .into_iter()
            .filter_map(|w| match w {
                SweepWorkload::Layer(l) => Some(l),
                SweepWorkload::Model(_) => None,
            })
            .collect();
        Self {
            engines: roster::names(),
            layers,
        }
    }

    fn engine_req(&self, id: u64, engine: &str, precision: &'static str) -> Request {
        Request {
            line: format!(
                r#"{{"id":{id},"op":"engine","engine":"{engine}","precision":"{precision}"}}"#
            ),
            class: Class::Engine,
            engine: engine.into(),
            precision: Some(precision),
            layer: None,
            model: None,
            filter: "",
        }
    }

    fn layer_req(&self, id: u64, engine: &str, precision: &'static str, l: &LayerShape) -> Request {
        Request {
            line: format!(
                r#"{{"id":{id},"op":"layer","engine":"{engine}","precision":"{precision}","workload":"{}","m":{},"n":{},"k":{},"repeats":{},"seed":{REQUEST_SEED}}}"#,
                l.name, l.m, l.n, l.k, l.repeats
            ),
            class: Class::Layer,
            engine: engine.into(),
            precision: Some(precision),
            layer: Some(l.clone()),
            model: None,
            filter: "",
        }
    }

    fn model_req(&self, id: u64, engine: &str, model: &'static str) -> Request {
        Request {
            line: format!(
                r#"{{"id":{id},"op":"model","engine":"{engine}","model":"{model}","seed":{REQUEST_SEED}}}"#
            ),
            class: Class::Model,
            engine: engine.into(),
            precision: None,
            layer: None,
            model: Some(model),
            filter: "",
        }
    }

    fn slice_req(&self, id: u64, class: Class, filter: &'static str) -> Request {
        Request {
            line: format!(
                r#"{{"id":{id},"op":"{}","filter":"{filter}","seed":{REQUEST_SEED}}}"#,
                class.name()
            ),
            class,
            engine: String::new(),
            precision: None,
            layer: None,
            model: None,
            filter,
        }
    }

    /// Every distinct steady-state request once: the warm-up pass.
    pub fn universe(&self) -> Vec<Request> {
        let mut out = Vec::new();
        let mut id = 0..;
        for e in &self.engines {
            for p in PRECISIONS {
                out.push(self.engine_req(id.next().unwrap_or(0), e, p));
                for l in &self.layers {
                    out.push(self.layer_req(id.next().unwrap_or(0), e, p, l));
                }
            }
            for m in MODELS {
                out.push(self.model_req(id.next().unwrap_or(0), e, m));
            }
        }
        out.push(self.model_req(id.next().unwrap_or(0), W4_MODEL.0, W4_MODEL.1));
        for f in SLICE_FILTERS {
            for c in [Class::Sweep, Class::Pareto] {
                out.push(self.slice_req(id.next().unwrap_or(0), c, f));
            }
        }
        out
    }

    /// One seeded request with wire id `id`.
    pub fn draw(&self, rng: &mut Rng, id: u64) -> Request {
        let u = rng.unit();
        let engine = &self.engines[rng.below(self.engines.len())];
        let precision = PRECISIONS[rng.below(PRECISIONS.len())];
        if u < 0.10 {
            self.engine_req(id, engine, precision)
        } else if u < 0.30 {
            match rng.below(MODELS.len() + 1) {
                0 => self.model_req(id, W4_MODEL.0, W4_MODEL.1),
                i => self.model_req(id, engine, MODELS[i - 1]),
            }
        } else if u < 0.34 {
            let class = [Class::Sweep, Class::Pareto][rng.below(2)];
            self.slice_req(id, class, SLICE_FILTERS[rng.below(SLICE_FILTERS.len())])
        } else if u < 0.39 {
            let (m, n, k) = (rng.range(1, 512), rng.range(16, 4096), rng.range(16, 2048));
            let layer = LayerShape::new(format!("{m}x{n}x{k}r1"), m, n, k, 1);
            Request {
                line: format!(
                    r#"{{"id":{id},"op":"layer","engine":"{engine}","m":{m},"n":{n},"k":{k},"seed":{REQUEST_SEED},"cycle_model":"analytic"}}"#
                ),
                class: Class::Fresh,
                engine: engine.clone(),
                precision: None,
                layer: Some(layer),
                model: None,
                filter: "",
            }
        } else {
            let l = &self.layers[rng.below(self.layers.len())];
            self.layer_req(id, engine, precision, l)
        }
    }

    /// `n` seeded requests with wire ids `first..first + n`.
    pub fn batch(&self, seed: u64, stream: u64, first: u64, n: usize) -> Vec<Request> {
        let mut rng = Rng::new(seed, stream);
        (0..n as u64)
            .map(|i| self.draw(&mut rng, first + i))
            .collect()
    }
}

/// Seeded Poisson arrival offsets (ns from the step start) at `rate` q/s.
pub fn arrivals(seed: u64, stream: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// The configuration of one serve run.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// The rate `latency_*` is reported at (q/s).
    pub reference_rate: f64,
    /// The open-loop rate ladder, ascending (q/s).
    pub ladder: Vec<f64>,
    /// The p99 limit a ladder step must meet (µs).
    pub p99_limit_us: f64,
    /// Share of the run's seconds spent on the reference step.
    pub reference_share: f64,
    /// Requests per ladder rung (a fixed count, so memory does not depend
    /// on how far the ladder climbs).
    pub rung_requests: usize,
    /// Requests per closed-loop pipelined burst.
    pub burst: usize,
    /// Bursts per run; `warm_throughput_per_s` is their median.
    pub bursts: usize,
    /// Set-ups measured (each: bind, spawn, warm-up pass).
    pub setups: usize,
}

impl ServeWorkload {
    pub fn mixed_open() -> Self {
        Self {
            reference_rate: 2000.0,
            ladder: vec![
                6000.0, 10000.0, 14000.0, 18000.0, 22000.0, 26000.0, 30000.0, 34000.0,
            ],
            p99_limit_us: 10_000.0,
            reference_share: 0.3,
            rung_requests: 6000,
            burst: 5000,
            bursts: 7,
            setups: 3,
        }
    }

    /// A reduced copy (a two-rung ladder, small bursts, one set-up): the
    /// layer probe of the dse workloads' traced runs, and small enough for
    /// unoptimized test builds.
    pub fn reduced(self) -> Self {
        Self {
            ladder: vec![2000.0, 4000.0],
            rung_requests: 2000,
            burst: 100,
            bursts: 2,
            setups: 1,
            ..self
        }
    }
}

/// Runs `f` against a served instance on a fresh cache, then shuts the
/// server down and joins it.
fn with_server<R>(f: impl FnOnce(&str, &EngineCache) -> R) -> std::io::Result<R> {
    let cache = EngineCache::new();
    let cache = &cache;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    std::thread::scope(|scope| {
        let config = ServeConfig {
            threads: SERVER_THREADS,
            ..ServeConfig::default()
        };
        let server = scope.spawn(move || serve_with(listener, cache, &DseOps, config));
        let r = f(&addr, cache);
        query_batch(&addr, &[r#"{"id":0,"op":"shutdown"}"#.to_string()])?;
        server.join().expect("server thread panicked")?;
        Ok(r)
    })
}

/// The count in a reply's `"points_follow"` field (0 when absent).
fn points_follow(line: &str) -> usize {
    parse_flat_object(line)
        .ok()
        .and_then(|m| match m.get("points_follow") {
            Some(JsonValue::Num(n)) => Some(*n as usize),
            _ => None,
        })
        .unwrap_or(0)
}

/// What one open-loop step observed.
#[derive(Debug, Default)]
pub struct Step {
    /// When due offset 0 fell.
    pub start: Option<Instant>,
    /// Per request: reply time minus due time (µs); `NaN` if missing.
    pub latency_us: Vec<f64>,
    /// Per request: a digest of the reply group's bytes and whether it
    /// answered ok; `None` if no reply came.
    pub replies: Vec<Option<Reply>>,
    /// Per request: send time minus due time (µs).
    pub lag_us: Vec<f64>,
    /// Largest sent-but-unanswered count seen.
    pub backlog_max: usize,
    /// Sent-but-unanswered count at each reply, in reply order.
    backlogs: Vec<f64>,
}

impl Step {
    /// Requests with no reply, or an error reply.
    pub fn errors(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| !r.is_some_and(|r| r.ok))
            .count()
    }

    /// Whether the unanswered count grew across the step: its mean over
    /// the last third of replies well above that over the first third. A
    /// short stall raises a few samples only; saturation raises them all.
    fn growing_backlog(&self) -> bool {
        let third = self.backlogs.len() / 3;
        if third == 0 {
            return false;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (first, last) = (
            &self.backlogs[..third],
            &self.backlogs[self.backlogs.len() - third..],
        );
        mean(last) > 16.0 + 3.0 * mean(first)
    }

    fn answered(&self) -> Vec<f64> {
        self.latency_us
            .iter()
            .copied()
            .filter(|l| !l.is_nan())
            .collect()
    }
}

/// Sends `reqs` open loop at offsets `due_ns` over one connection and
/// reads every reply group.
pub fn run_step(addr: &str, reqs: &[Request], due_ns: &[u64]) -> std::io::Result<Step> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    let sent = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let at = |ns: u64| start + Duration::from_nanos(ns);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Vec<f64> {
            let mut lag = Vec::with_capacity(reqs.len());
            let mut buf = Vec::new();
            let mut i = 0;
            while i < reqs.len() {
                let now = Instant::now();
                let due = at(due_ns[i]);
                // Sleep to just short of the due time, then spin: a thread
                // woken from sleep can run hundreds of µs late on a
                // virtualised host, and that lag would land in every
                // latency measured from due time.
                if due > now {
                    let wait = due - now;
                    if wait > SPIN_BEFORE_DUE + SPIN_BEFORE_DUE / 2 {
                        std::thread::sleep(wait - SPIN_BEFORE_DUE);
                    } else {
                        std::thread::yield_now();
                    }
                    continue;
                }
                buf.clear();
                while i < reqs.len() && at(due_ns[i]) <= now {
                    buf.extend_from_slice(reqs[i].line.as_bytes());
                    buf.push(b'\n');
                    lag.push((now - at(due_ns[i])).as_nanos() as f64 / 1e3);
                    i += 1;
                }
                if writer.write_all(&buf).is_err() {
                    break;
                }
                sent.store(i, Ordering::Relaxed);
            }
            let _ = writer.shutdown(std::net::Shutdown::Write);
            lag
        });
        let mut step = Step {
            start: Some(start),
            latency_us: vec![f64::NAN; reqs.len()],
            replies: vec![None; reqs.len()],
            ..Step::default()
        };
        let mut lines = BufReader::new(&stream).lines();
        'read: for (i, &due) in due_ns.iter().enumerate().take(reqs.len()) {
            let mut group = Vec::new();
            let mut expected = 1;
            while group.len() < expected {
                match lines.next() {
                    Some(Ok(line)) => {
                        if group.is_empty() {
                            expected += points_follow(&line);
                        }
                        group.push(line);
                    }
                    _ => break 'read,
                }
            }
            let now = Instant::now();
            step.latency_us[i] = now.saturating_duration_since(at(due)).as_nanos() as f64 / 1e3;
            step.replies[i] = Some(Reply::of(&group));
            let backlog = sent.load(Ordering::Relaxed).saturating_sub(i + 1);
            step.backlog_max = step.backlog_max.max(backlog);
            step.backlogs.push(backlog as f64);
        }
        step.lag_us = sender.join().expect("sender thread panicked");
        Ok(step)
    })
}

/// A reply group, reduced to what the checks need: a digest of its bytes
/// (kept instead of the lines, so memory does not grow with the steps run)
/// and whether its summary line answered ok.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    digest: u64,
    ok: bool,
}

impl Reply {
    pub fn of(lines: &[String]) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        lines.hash(&mut h);
        Self {
            digest: h.finish(),
            ok: lines.first().is_some_and(|l| l.contains("\"ok\":true")),
        }
    }
}

/// Checks every reply group of `reqs` against the in-process handler on
/// `replay` (a separate cache), counting one failure per mismatch.
fn check_replies(
    out: &mut Outcome,
    replay: &EngineCache,
    reqs: &[Request],
    replies: &[Option<Reply>],
) {
    let mismatched = reqs
        .iter()
        .zip(replies)
        .filter(|(r, got)| Some(Reply::of(&handle_request(&r.line, replay, &DseOps).0)) != **got)
        .count() as u64;
    out.check(mismatched == 0, mismatched, || {
        format!("{mismatched} served reply groups differ from in-process replies")
    });
}

/// Accounts one open-loop step: every request attempted, every missing
/// or error reply failed, and on the reference step every late one too.
fn account_step(out: &mut Outcome, step: &Step, what: &str, count_late: bool) {
    out.attempt(step.replies.len() as u64);
    let errors = step.errors() as u64;
    out.check(errors == 0, errors, || {
        format!("{what}: {errors} requests unanswered or failed")
    });
    if count_late {
        let late = step.latency_us.iter().filter(|&&l| l > LATE_US).count() as u64;
        out.check(late == 0, late, || {
            format!("{what}: {late} replies over {LATE_US} us late")
        });
    }
}

/// The measured set-ups: each binds, spawns and runs one warm-up pass of
/// the request universe; the last instance then runs `measure`.
fn setups_then<R>(
    w: &ServeWorkload,
    mix: &Mix,
    out: &mut Outcome,
    mut measure: impl FnMut(&str, &EngineCache, &mut Outcome) -> R,
) -> (Vec<f64>, Option<R>) {
    let universe: Vec<String> = mix.universe().into_iter().map(|r| r.line).collect();
    let mut setups = Vec::new();
    let mut result = None;
    for k in 0..w.setups {
        let start = Instant::now();
        let ran = with_server(|addr, cache| {
            let warm = query_batch(addr, &universe);
            setups.push(start.elapsed().as_secs_f64());
            out.attempt(universe.len() as u64);
            let ok = warm.as_ref().map_or(0, |lines| {
                lines
                    .iter()
                    .filter(|l| l.starts_with("{\"id\":") && l.contains("\"ok\":true"))
                    .count()
            });
            let groups = warm.as_ref().map_or(0, |lines| {
                lines.iter().filter(|l| !l.contains("\"csv\":")).count()
            });
            out.check(
                groups == universe.len() && ok >= universe.len(),
                universe.len() as u64,
                || format!("warm-up: {ok} ok of {} requests", universe.len()),
            );
            (k + 1 == w.setups).then(|| measure(addr, cache, out))
        });
        match ran {
            Ok(r) => result = r.or(result),
            Err(e) => out.check_one(false, || format!("server run failed: {e}")),
        }
    }
    (setups, result)
}

/// The knee: the highest ladder rate whose p99 meets `limit`, moved
/// toward the next (failing) rate by interpolating log p99 between the
/// two steps, so the figure is continuous rather than a ladder rung.
/// `steps` holds `(rate, p99, meets)` in ascending rate order.
pub fn knee(steps: &[(f64, f64, bool)], limit: f64) -> f64 {
    let Some(best) = steps.iter().rposition(|s| s.2) else {
        // Nothing met the limit: scale the lowest rate by how far over it was.
        return steps.first().map_or(0.0, |s| s.0 * (limit / s.1).min(1.0));
    };
    let (r0, p0, _) = steps[best];
    let Some(&(r1, p1, _)) = steps.get(best + 1) else {
        return r0;
    };
    let (lo, hi) = (p0.min(limit).ln(), p1.max(limit * 1.0001).ln());
    r0 + (r1 - r0) * ((limit.ln() - lo) / (hi - lo)).clamp(0.0, 1.0)
}

/// The untraced run: every end-to-end metric.
///
/// The reference step runs in three parts (start, middle and end),
/// and the closed-loop bursts run between ladder rungs, so each figure
/// samples the whole run rather than one moment of it. Replies are checked
/// against the in-process handler between steps, off the clock.
pub fn run_plain(w: &ServeWorkload, seed: u64, secs: f64) -> Outcome {
    let mut out = Outcome::default();
    let mix = Mix::new();
    let replay = EngineCache::new();
    let mut figures = BTreeMap::new();
    let (setups, _) = setups_then(w, &mix, &mut out, |addr, _cache, out| {
        let part_len = (w.reference_rate * w.reference_share * secs / 3.0) as usize;
        let mut reference: Vec<f64> = Vec::new();
        let mut reference_part = |out: &mut Outcome, part: u64| {
            let reqs = mix.batch(seed, 10 + 2 * part, 1, part_len);
            let due = arrivals(seed, 11 + 2 * part, w.reference_rate, part_len);
            match run_step(addr, &reqs, &due) {
                Ok(step) => {
                    account_step(out, &step, "reference step", true);
                    reference.extend(step.answered());
                    check_replies(out, &replay, &reqs, &step.replies);
                }
                Err(e) => out.check_one(false, || format!("reference step failed: {e}")),
            }
        };
        let mut rates = Vec::new();
        let mut burst = |out: &mut Outcome, b: u64| {
            let reqs = mix.batch(seed, 20 + b, 1, w.burst);
            let lines: Vec<String> = reqs.iter().map(|r| r.line.clone()).collect();
            let start = Instant::now();
            let got = query_batch(addr, &lines);
            let dt = start.elapsed().as_secs_f64();
            out.attempt(reqs.len() as u64);
            match got {
                Ok(got) => {
                    rates.push(reqs.len() as f64 / dt);
                    check_replies(out, &replay, &reqs, &group_replies(&got, reqs.len()));
                }
                Err(e) => out.check(false, reqs.len() as u64, || format!("burst failed: {e}")),
            }
        };

        // The reference step in three parts spread over the run.
        reference_part(out, 0);
        let mut attempt = 0u64;
        // One ladder rung: `(p99, meets)`, or `None` if the step could not
        // run. A rung that misses is run once more: a host stall can spoil
        // one try, but a rate past the knee misses both.
        let mut rung = |out: &mut Outcome, rate: f64| -> Option<(f64, bool)> {
            let mut best: Option<(f64, bool)> = None;
            for _try in 0..2 {
                burst(out, attempt);
                let reqs = mix.batch(seed, 100 + attempt, 1, w.rung_requests);
                let due = arrivals(seed, 200 + attempt, rate, w.rung_requests);
                attempt += 1;
                let Ok(step) = run_step(addr, &reqs, &due) else {
                    out.check_one(false, || format!("ladder step {rate} q/s failed"));
                    return None;
                };
                account_step(out, &step, "ladder step", false);
                check_replies(out, &replay, &reqs, &step.replies);
                let p99 = windowed_quantile(&step.answered(), 1000, 0.99);
                let pass = step.errors() == 0 && p99 <= w.p99_limit_us && !step.growing_backlog();
                out.note(format!(
                    "ladder {rate} q/s: p50 {:.0} us, p99 {p99:.0} us, lag p50/p99 {:.0}/{:.0} us, \
                     backlog max {}, {}",
                    median(&step.answered()),
                    median(&step.lag_us),
                    quantile(&step.lag_us, 0.99),
                    step.backlog_max,
                    if pass { "meets" } else { "misses" }
                ));
                best = Some(match best {
                    Some((p, _)) if p < p99 => (p, false),
                    _ => (p99, pass),
                });
                if pass {
                    break;
                }
            }
            best
        };
        // Coarse rungs up to the first miss after a pass, then two
        // bisections between the highest pass and the lowest miss above it.
        let mut steps: Vec<(f64, f64, bool)> = Vec::new();
        for &rate in &w.ladder {
            let Some((p99, pass)) = rung(out, rate) else {
                break;
            };
            steps.push((rate, p99, pass));
            if !pass && steps.iter().any(|s| s.2) {
                break;
            }
        }
        reference_part(out, 1);
        for _ in 0..2 {
            let Some(lo) = steps.iter().rposition(|s| s.2) else {
                break;
            };
            let Some(&(hi, _, _)) = steps.get(lo + 1) else {
                break;
            };
            let mid = (steps[lo].0 + hi) / 2.0;
            let Some((p99, pass)) = rung(out, mid) else {
                break;
            };
            steps.insert(lo + 1, (mid, p99, pass));
        }
        for b in attempt..(w.bursts as u64).max(attempt) {
            burst(out, b);
        }
        reference_part(out, 2);

        figures.insert("max_qps", knee(&steps, w.p99_limit_us));
        figures.insert("burst", median(&rates));
        figures.insert("p50", windowed_quantile(&reference, 1000, 0.5));
        figures.insert("p99", windowed_quantile(&reference, 1000, 0.99));
        let per_window = |q: f64| -> Vec<u64> {
            reference
                .chunks(1000)
                .map(|c| quantile(c, q) as u64)
                .collect()
        };
        out.note(format!(
            "reference windows: p50 {:?} us, p99 {:?} us, burst q/s {:?}",
            per_window(0.5),
            per_window(0.99),
            rates.iter().map(|r| *r as u64).collect::<Vec<_>>()
        ));
        out.note(format!(
            "serve reference {} q/s: {} samples in windows of 1000 (tail reportable to p{}), \
             {} bursts of {}, {} ladder rungs",
            w.reference_rate,
            reference.len(),
            tail_percentile(1000).unwrap_or(0.0),
            rates.len(),
            w.burst,
            steps.len()
        ));
    });

    out.set("setup_s", median(&setups));
    out.set(
        "throughput_per_s",
        figures.get("max_qps").copied().unwrap_or(f64::NAN),
    );
    out.set(
        "warm_throughput_per_s",
        figures.get("burst").copied().unwrap_or(f64::NAN),
    );
    out.set(
        "latency_p50_us",
        figures.get("p50").copied().unwrap_or(f64::NAN),
    );
    out.set(
        "latency_p99_us",
        figures.get("p99").copied().unwrap_or(f64::NAN),
    );
    out.set("peak_rss_mib", rss_mib());
    out
}

/// Splits a pipelined reply stream into one group per request.
fn group_replies(lines: &[String], n: usize) -> Vec<Option<Reply>> {
    let mut groups = Vec::with_capacity(n);
    let mut rest = lines;
    while let Some(first) = rest.first() {
        let len = (1 + points_follow(first)).min(rest.len());
        groups.push(Some(Reply::of(&rest[..len])));
        rest = &rest[len..];
    }
    groups.resize(n.max(groups.len()), None);
    groups
}

/// Queue-wait quantile `q` (µs) over a window between two `metrics`
/// replies.
fn queue_wait_us(before: &str, after: &str, q: f64) -> f64 {
    let hist = |reply: &str| -> Option<HistogramSnapshot> {
        let m = parse_flat_object(reply).ok()?;
        let num = |k: &str| match m.get(k) {
            Some(JsonValue::Num(v)) => Some(*v as u64),
            _ => None,
        };
        let buckets = match m.get("hist_serve_queue_wait_ns_buckets")? {
            JsonValue::Str(s) if s.is_empty() => Vec::new(),
            JsonValue::Str(s) => s.split(',').map(|c| c.parse().unwrap_or(0)).collect(),
            _ => return None,
        };
        Some(HistogramSnapshot::from_parts(
            buckets,
            num("hist_serve_queue_wait_ns_sum")?,
            num("hist_serve_queue_wait_ns_max")?,
        ))
    };
    match (hist(before), hist(after)) {
        (Some(b), Some(a)) => a.since(&b).quantile(q) as f64 / 1e3,
        _ => f64::NAN,
    }
}

fn metrics_reply(addr: &str) -> String {
    query_batch(addr, &[r#"{"id":0,"op":"metrics"}"#.to_string()])
        .ok()
        .and_then(|mut v| v.pop())
        .unwrap_or_default()
}

/// Resolves a request's engine the way the server does: roster label,
/// then the optional precision.
fn resolve(req: &Request) -> Option<EngineSpec> {
    let spec = roster::find(&req.engine)?;
    Some(match req.precision.and_then(Precision::parse) {
        Some(p) => spec.with_precision(p),
        None => spec,
    })
}

/// The traced run: client spans on the reference step, then every serve
/// layer timed in process on a separate warm cache.
///
/// The split of a `layer` or `model` op's client latency is checked
/// against figures measured apart from it: its in-process handle time, the
/// queue wait the server recorded over the step, and the transport of the
/// step's `engine` ops — the cheapest op with a short reply, under the same
/// load — taken as their client latency less their handle time and the
/// queue wait.
pub fn run_traced(w: &ServeWorkload, seed: u64, secs: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mix = Mix::new();
    let n = (w.reference_rate * w.reference_share * secs) as usize;
    let reqs = mix.batch(seed, 10, 1, n);
    let due = arrivals(seed, 11, w.reference_rate, n);
    let mut plain_p50 = f64::NAN;
    let measured = setups_then(w, &mix, &mut out, |addr, cache, out| {
        // Untraced half-length reference for the overhead figure.
        let half = n / 2;
        let untraced = run_step(addr, &reqs[..half], &due[..half]).ok()?;
        account_step(out, &untraced, "untraced reference step", true);
        plain_p50 = median(&untraced.answered());
        let before_metrics = metrics_reply(addr);
        let before = cache.stats();
        let step = run_step(addr, &reqs, &due).ok()?;
        let window = cache.stats().since(&before);
        let after_metrics = metrics_reply(addr);
        let queue_us = (
            queue_wait_us(&before_metrics, &after_metrics, 0.5),
            queue_wait_us(&before_metrics, &after_metrics, 0.99),
        );
        Some((step, window, queue_us, cache.priced_len()))
    });
    let Some((step, window, (queue_p50, queue_p99), pe_entries)) = measured.1.flatten() else {
        out.check_one(false, || "traced reference step did not run".into());
        return out;
    };
    account_step(&mut out, &step, "traced reference step", true);

    // Client spans: due time to reply, one per request.
    let mut t = tracer.local();
    if let Some(start) = step.start {
        for (i, &lat) in step.latency_us.iter().enumerate() {
            if !lat.is_nan() {
                let due = start + Duration::from_nanos(due[i]);
                let end = due + Duration::from_nanos((lat * 1e3) as u64);
                t.record("serve.client", 0, i as u64, due, end);
            }
        }
    }

    // In-process replay on a separate cache, warmed like the server.
    let replay = EngineCache::new();
    for r in mix.universe() {
        handle_request(&r.line, &replay, &DseOps);
    }
    let mut by_class: BTreeMap<(Class, &'static str), Vec<f64>> = BTreeMap::new();
    let mut handle_us = vec![f64::NAN; reqs.len()];
    let mut mismatched = 0u64;
    let mut slice_errors = 0u64;
    let catalog_ns =
        |t: &mut crate::trace::Local, i: u64, name: &str| -> (Option<NetworkModel>, f64) {
            let open = t.begin("workloads.catalog_lookup", 0, i);
            let net = NetworkModel::catalog()
                .into_iter()
                .find(|n| n.name.eq_ignore_ascii_case(name));
            (net, t.end(open))
        };
    for (i, r) in reqs.iter().enumerate() {
        let id = i as u64;
        let open = t.begin("engine.serve.handle", 0, id);
        let (lines, _) = handle_request(&r.line, &replay, &DseOps);
        let handle = t.end(open);
        handle_us[i] = handle / 1e3;
        mismatched += u64::from(Some(Reply::of(&lines)) != step.replies[i]);
        by_class
            .entry((r.class, "handle"))
            .or_default()
            .push(handle);

        let open = t.begin("engine.serve.parse", 0, id);
        black_box(parse_flat_object(&r.line).ok());
        by_class
            .entry((r.class, "parse"))
            .or_default()
            .push(t.end(open));

        let eval = Evaluator::new(&replay);
        match r.class {
            Class::Sweep | Class::Pareto => {
                let open = t.begin("dse.serve_ops.slice", 0, id);
                let slice = evaluate_slice(
                    r.filter,
                    None,
                    REQUEST_SEED,
                    Some(DEFAULT_MAX_POINTS),
                    &replay,
                    CycleModel::Sampled,
                );
                by_class
                    .entry((r.class, "eval"))
                    .or_default()
                    .push(t.end(open));
                slice_errors += u64::from(black_box(slice).is_err());
            }
            class => {
                let open = t.begin("engine.roster.find", 0, id);
                let spec = resolve(r);
                let mut resolve_ns = t.end(open);
                by_class
                    .entry((class, "find"))
                    .or_default()
                    .push(resolve_ns);
                let Some(spec) = spec else { continue };
                let eval_ns = match class {
                    Class::Engine => t.span_ns("engine.eval.price", id, || {
                        black_box(eval.price(&spec));
                    }),
                    Class::Layer | Class::Fresh => {
                        let Some(layer) = r.layer.clone() else {
                            continue;
                        };
                        let eval = match class {
                            Class::Fresh => eval.with_cycle_model(CycleModel::Analytic),
                            _ => eval,
                        };
                        let wl = SweepWorkload::Layer(layer);
                        t.span_ns("engine.eval.metrics", id, || {
                            black_box(eval.metrics(&spec, &wl, REQUEST_SEED));
                        })
                    }
                    _ => {
                        let (net, ns) = catalog_ns(&mut t, id, r.model.unwrap_or_default());
                        by_class.entry((class, "catalog")).or_default().push(ns);
                        resolve_ns += ns;
                        let Some(net) = net else { continue };
                        t.span_ns("engine.eval.model_report", id, || {
                            black_box(eval.model_report(
                                &spec,
                                &net,
                                REQUEST_SEED,
                                MODEL_SAMPLE_CAPS,
                            ));
                        })
                    }
                };
                by_class
                    .entry((class, "resolve"))
                    .or_default()
                    .push(resolve_ns);
                by_class.entry((class, "eval")).or_default().push(eval_ns);
            }
        }
    }
    tracer.absorb(t);
    out.check(mismatched == 0, mismatched, || {
        format!("{mismatched} served reply groups differ from in-process replies")
    });
    out.check(slice_errors == 0, slice_errors, || {
        format!("{slice_errors} slice evaluations failed")
    });

    let p50 =
        |c: Class, part: &'static str| by_class.get(&(c, part)).map_or(f64::NAN, |v| median(v));
    let all = |part: &'static str| -> Vec<f64> {
        by_class
            .iter()
            .filter(|((_, p), _)| *p == part)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    };
    out.set("engine.serve.parse_ns", median(&all("parse")));
    out.set("engine.roster.find_ns", median(&all("find")));
    out.set("workloads.catalog_lookup_ns", median(&all("catalog")));
    let mut slices = by_class
        .get(&(Class::Sweep, "eval"))
        .cloned()
        .unwrap_or_default();
    slices.extend(by_class.get(&(Class::Pareto, "eval")).into_iter().flatten());
    out.set("dse.serve_ops.slice_ns", median(&slices));
    out.set("engine.eval.price_ns", p50(Class::Engine, "eval"));
    out.set("engine.eval.metrics_ns", p50(Class::Layer, "eval"));
    out.set("engine.eval.model_report_ns", p50(Class::Model, "eval"));
    for c in [
        Class::Engine,
        Class::Layer,
        Class::Model,
        Class::Sweep,
        Class::Pareto,
    ] {
        let h = by_class.get(&(c, "handle")).cloned().unwrap_or_default();
        out.set(
            &format!("engine.serve.handle_ns.{}.p50", c.name()),
            median(&h),
        );
        out.set(
            &format!("engine.serve.handle_ns.{}.p99", c.name()),
            quantile(&h, 0.99),
        );
    }
    for c in [Class::Engine, Class::Layer, Class::Model] {
        out.set(
            &format!("engine.serve.unattributed_ns.{}", c.name()),
            p50(c, "handle") - p50(c, "parse") - p50(c, "resolve") - p50(c, "eval"),
        );
    }
    let answered_of = |keep: &dyn Fn(Class) -> bool| -> Vec<usize> {
        (0..reqs.len())
            .filter(|&i| keep(reqs[i].class) && !step.latency_us[i].is_nan())
            .collect()
    };
    let client_us = |c: Class| -> Vec<f64> {
        answered_of(&|k| k == c)
            .into_iter()
            .map(|i| step.latency_us[i])
            .collect()
    };
    let point_ops = answered_of(&|k| matches!(k, Class::Engine | Class::Layer | Class::Model));
    let beyond: Vec<f64> = point_ops
        .into_iter()
        .map(|i| step.latency_us[i] - handle_us[i])
        .collect();
    out.set("engine.serve.transport_us", median(&beyond));
    out.set("engine.serve.queue_wait_p99_us", queue_p99);
    let engine_us = client_us(Class::Engine);
    let transport_us = median(&engine_us) - p50(Class::Engine, "handle") / 1e3 - queue_p50;
    for c in [Class::Layer, Class::Model] {
        let client = client_us(c);
        let client_p50 = median(&client);
        // parse + resolve + eval + unattributed is the handle p50 by
        // construction; transport and queue wait are measured apart.
        let handle_p50_us = p50(c, "handle") / 1e3;
        let split = handle_p50_us + transport_us + queue_p50;
        let gap = (split - client_p50).abs() / client_p50;
        out.set(&format!("engine.serve.split_gap_share.{}", c.name()), gap);
        let samples = client.len().min(engine_us.len());
        out.note(format!(
            "{} op split: handle {handle_p50_us:.1} + transport {transport_us:.1} + queue \
             {queue_p50:.1} = {split:.1} us against a client p50 of {client_p50:.1} us \
             ({samples} samples; checked from {SPLIT_MIN_SAMPLES})",
            c.name()
        ));
        out.check_one(gap <= SPLIT_SLACK || samples < SPLIT_MIN_SAMPLES, || {
            format!(
                "{} split {split:.1} us vs client p50 {client_p50:.1} us",
                c.name()
            )
        });
    }
    crate::dse::set_cache_metrics(&mut out, &window, pe_entries);
    out.set("bench.gen_lag_p99_us", quantile(&step.lag_us, 0.99));
    out.set("bench.backlog_max", step.backlog_max as f64);
    let answered = step.answered();
    out.set("serve.client_p50_us", median(&answered));
    out.set("serve.client_p99_us", quantile(&answered, 0.99));
    out.set("serve.requests", reqs.len() as f64);
    out.set(
        "bench.trace_overhead_share",
        median(&step.answered()) / plain_p50 - 1.0,
    );
    out.note(format!(
        "serve traced: {} requests at {} q/s",
        reqs.len(),
        w.reference_rate
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_mix_are_deterministic_per_seed() {
        let mix = Mix::new();
        let lines = |seed| -> Vec<String> {
            mix.batch(seed, 10, 1, 500)
                .into_iter()
                .map(|r| r.line)
                .collect()
        };
        assert_eq!(lines(42), lines(42));
        assert_ne!(lines(42), lines(7));
        assert_eq!(arrivals(42, 11, 2000.0, 500), arrivals(42, 11, 2000.0, 500));
        assert_ne!(arrivals(42, 11, 2000.0, 500), arrivals(7, 11, 2000.0, 500));
        let due = arrivals(42, 11, 2000.0, 20_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        let rate = due.len() as f64 / (*due.last().unwrap() as f64 / 1e9);
        assert!((rate / 2000.0 - 1.0).abs() < 0.05, "mean rate {rate}");
    }

    #[test]
    fn mix_shares_follow_the_design() {
        let mix = Mix::new();
        let reqs = mix.batch(42, 10, 1, 20_000);
        let share =
            |c: Class| reqs.iter().filter(|r| r.class == c).count() as f64 / reqs.len() as f64;
        for (c, want) in [
            (Class::Engine, 0.10),
            (Class::Model, 0.20),
            (Class::Layer, 0.61),
            (Class::Fresh, 0.05),
        ] {
            assert!((share(c) - want).abs() < 0.015, "{:?}: {}", c, share(c));
        }
        assert!((share(Class::Sweep) + share(Class::Pareto) - 0.04).abs() < 0.01);
        assert!(reqs.iter().any(|r| r.line.contains("ResNet18-W4")));
        for p in PRECISIONS {
            assert!(reqs
                .iter()
                .any(|r| r.line.contains(&format!("\"precision\":\"{p}\""))));
        }
    }

    #[test]
    fn knee_interpolates_between_pass_and_fail() {
        let steps = [
            (1000.0, 500.0, true),
            (2000.0, 1000.0, true),
            (4000.0, 4000.0, false),
        ];
        let k = knee(&steps, 2000.0);
        assert!((k - 3000.0).abs() < 1.0, "{k}");
        assert_eq!(knee(&steps[..2], 2000.0), 2000.0);
        // A failing low rung below passing ones does not cap the knee.
        let steps = [
            (1000.0, 3000.0, false),
            (2000.0, 1000.0, true),
            (4000.0, 4000.0, false),
        ];
        assert!((knee(&steps, 2000.0) - 3000.0).abs() < 1.0);
        assert_eq!(knee(&[(1000.0, 4000.0, false)], 2000.0), 500.0);
    }
}
