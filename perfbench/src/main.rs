//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse-sampled-cold|dse-analytic-roofline|serve-mixed-open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures every end-to-end metric with tracing off;
//! `--trace 1` runs the traced variant and reports every per-layer metric
//! (see `catalog.rs`). The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! The process exits non-zero when any output check failed.

mod catalog;
mod dse;
mod outcome;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use catalog::{Metric, END_TO_END, GATED_WORKLOADS, PER_LAYER, WORKLOADS};
use outcome::Outcome;
use trace::Tracer;

/// Sweep and grid worker threads (the load generator also uses two: one
/// sender, one reader).
pub const THREADS: usize = 2;

/// The default workload seed; the committed goldens were generated at it.
pub const DEFAULT_SEED: u64 = dse::GOLDEN_SEED;
/// The held-out seed, never used while tuning the benchmark.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Seconds the serve probe of a traced dse run gives its reference step
/// budget (0.3 of it: 6000 requests at 2000 q/s, ~600 of them `engine`
/// ops, the transport reference of the split check).
const SERVE_PROBE_SECONDS: f64 = 10.0;

/// Peak resident set size of this process, in MiB.
pub fn rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the C library expects on this target; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn dse_workload(name: &str) -> Option<dse::DseWorkload> {
    match name {
        "dse-sampled-cold" => Some(dse::DseWorkload::sampled_cold()),
        "dse-analytic-roofline" => Some(dse::DseWorkload::analytic_roofline()),
        _ => None,
    }
}

/// Runs one workload. The traced variant also runs a reduced pass of the
/// other workload family, which supplies the per-layer figures of layers
/// the named workload never calls. `reduced` shrinks the named workload
/// too, for unoptimized test builds.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    reduced: bool,
) -> (Outcome, Option<Tracer>) {
    let serve_w = serve::ServeWorkload::mixed_open();
    let (dse_w, serve_w) = match dse_workload(workload) {
        d if reduced => (d.map(dse::DseWorkload::reduced), serve_w.reduced()),
        d => (d, serve_w),
    };
    match (dse_w, traced) {
        (Some(w), false) => (dse::run_plain(&w, seed, seconds), None),
        (None, false) => (serve::run_plain(&serve_w, seed, seconds), None),
        (Some(w), true) => {
            let tracer = Tracer::new();
            let mut out = dse::run_traced(&w, seed, &tracer);
            let probe = serve::ServeWorkload::mixed_open().reduced();
            out.merge_missing(serve::run_traced(
                &probe,
                seed,
                SERVE_PROBE_SECONDS,
                &tracer,
            ));
            (out, Some(tracer))
        }
        (None, true) => {
            let tracer = Tracer::new();
            let mut out = serve::run_traced(&serve_w, seed, seconds, &tracer);
            let probe = dse::DseWorkload::analytic_roofline().reduced();
            out.merge_missing(dse::run_traced(&probe, seed, &tracer));
            (out, Some(tracer))
        }
    }
}

/// The result line: the metrics of `set`, in catalog order.
fn result_json(out: &Outcome, set: &[Metric]) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|m| {
            let v = out.metrics.get(m.name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut out, tracer) = run(&args.workload, args.seed, args.seconds, args.trace, false);
    let set: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in set {
        out.check_one(
            out.metrics.get(m.name).is_some_and(|v| v.is_finite()),
            || format!("metric {} was not measured", m.name),
        );
    }
    if let Some(tracer) = tracer {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("perfbench-traces")));
        if let Some(dir) = dir {
            let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            match tracer.write_jsonl(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("could not write spans: {e}"),
            }
        }
    }
    if !GATED_WORKLOADS.contains(&args.workload.as_str()) {
        out.note(format!(
            "{} is not gated by BENCHMARK.json (see GATED_WORKLOADS in catalog.rs)",
            args.workload
        ));
    }
    for note in &out.notes {
        println!("{note}");
    }
    for m in set {
        let v = out.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        let mapping = match m.moves {
            "" => String::new(),
            moves => format!(
                "  [{} is better; moves {moves}; flat on {}]",
                m.better.name(),
                m.flat
            ),
        };
        println!("{:<40} {:>16.4} {}{mapping}", m.name, v, m.unit);
    }
    println!(
        "failed_share {:.6} ({} of {} attempted operations failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", result_json(&out, set));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root")
    }

    /// The `"name"` values of one top-level array of BENCHMARK.json.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let body = &json[start..];
        let end = body.find(']').expect("array end");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let json = benchmark_json();
        let names = |set: &[Metric]| set.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&json, "end_to_end"), names(&END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), names(&PER_LAYER));
        assert_eq!(
            names_in(&json, "workloads"),
            GATED_WORKLOADS.map(str::to_string).to_vec()
        );
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                m.better.name()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn every_per_layer_metric_carries_its_mapping() {
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty(), "{}: no end-to-end mapping", m.name);
            assert!(!m.flat.is_empty(), "{}: no flat prediction", m.name);
        }
        for m in &END_TO_END {
            assert!(m.moves.is_empty() && m.flat.is_empty(), "{}", m.name);
        }
    }

    /// Every catalog metric comes out finite: the end-to-end set from the
    /// untraced run and the per-layer set from the traced run, on every
    /// workload (inputs shrunk so an unoptimized build finishes quickly).
    #[test]
    fn every_metric_is_emitted_by_the_plain_and_traced_runs() {
        for workload in WORKLOADS {
            for (traced, set) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let (out, _) = run(workload, DEFAULT_SEED, 0.5, traced, true);
                assert_eq!(out.failed, 0, "{workload} traced={traced}: {:?}", out.notes);
                for m in set {
                    let v = out.metrics.get(m.name).copied().unwrap_or(f64::NAN);
                    assert!(
                        v.is_finite(),
                        "{workload} traced={traced}: {} = {v}",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn args_accept_both_recorded_seeds() {
        let argv = |seed: u64| -> Vec<String> {
            [
                "--workload",
                "serve-mixed-open",
                "--seed",
                &seed.to_string(),
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(str::to_string)
            .to_vec()
        };
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let a = parse_args(&argv(seed)).expect("parses");
            assert_eq!((a.seed, a.seconds, a.trace), (seed, 3.0, true));
        }
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }
}
