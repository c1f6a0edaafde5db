//! Every metric the benchmark reports, with its unit, direction and —
//! for per-layer metrics — the end-to-end metric and workload it should
//! move, and where it is predicted to stay flat.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.
//!
//! End-to-end metrics carry one meaning per workload:
//!
//! | metric | dse-sampled-cold / dse-analytic-roofline | serve-mixed-open |
//! |---|---|---|
//! | `setup_s` | space enumeration + fresh cache (median of set-ups, one before each restart) | bind + spawn + one warm-up pass of the request universe (median of 3) |
//! | `throughput_per_s` | design points/s: cold sweep + Pareto + CSV | highest open-loop q/s meeting the p99 limit (interpolated knee) |
//! | `warm_throughput_per_s` | points/s: snapshot decode into a fresh cache + warm re-sweep + Pareto + CSV; median of the run's three fastest restarts | q/s of a closed-loop pipelined burst on the warm server |
//! | `latency_p50_us`, `latency_p99_us` | one served slice query on the restarted cache: `evaluate_slice` + per-workload Pareto front for one engine at one precision (7 points), as the serve `sweep`/`pareto` ops compute it; p50 is the median over slices of each slice's fastest answer, p99 the interquartile mean over windows of 1000 of each window's p99 | request latency from due time at the reference rate; median over windows of 1000 |
//! | `peak_rss_mib` | peak resident memory of the run's process | same |

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) a change to this layer should
    /// move; empty for end-to-end metrics.
    pub moves: &'static str,
    /// Where the prediction is no change.
    pub flat: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves: "",
        flat: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    flat: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
        flat,
    }
}

use Better::{Higher, Lower};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = [
    "dse-sampled-cold",
    "dse-analytic-roofline",
    "serve-mixed-open",
];

/// The workloads `BENCHMARK.json` gates on. `serve-mixed-open` runs but is
/// not gated: on a shared 2-core VM its knee and p99 moved by more than any
/// admissible bound between runs (a quartile spread of ~0.28 over ten
/// seeds), while its p50 and burst rate held within ~0.1. Its layers are
/// still traced on the gated workloads, through the serve probe.
pub const GATED_WORKLOADS: [&str; 2] = ["dse-sampled-cold", "dse-analytic-roofline"];

/// The end-to-end metrics: what a user of `repro dse` / `repro serve` sees.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower),
    e2e("throughput_per_s", "1/s", Higher),
    e2e("warm_throughput_per_s", "1/s", Higher),
    e2e("latency_p50_us", "us", Lower),
    e2e("latency_p99_us", "us", Lower),
    e2e("peak_rss_mib", "MiB", Lower),
];

const SERVE: &str = "serve-mixed-open";
const BOTH_DSE: &str = "dse-sampled-cold, dse-analytic-roofline";

/// The per-layer metrics of the traced run. On a workload that never
/// calls a layer, its figures come from the traced run's probe pass (the
/// other workload family, reduced), so every metric exists on every
/// workload; the prediction there is `flat`.
#[rustfmt::skip]
pub const PER_LAYER: [Metric; 59] = [
    layer("engine.serve.parse_ns", "ns", Lower, "latency_p50_us on serve-mixed-open", BOTH_DSE),
    layer("engine.roster.find_ns", "ns", Lower, "latency_p50_us, throughput_per_s on serve-mixed-open", BOTH_DSE),
    layer("workloads.catalog_lookup_ns", "ns", Lower, "latency_p50_us, throughput_per_s on serve-mixed-open", BOTH_DSE),
    layer("engine.eval.price_ns", "ns", Lower, "latency_p50_us on serve-mixed-open; warm_throughput_per_s on dse-analytic-roofline", "dse-sampled-cold"),
    layer("engine.eval.metrics_ns", "ns", Lower, "latency_p50_us on serve-mixed-open; warm_throughput_per_s on dse-analytic-roofline", "dse-sampled-cold"),
    layer("engine.eval.model_report_ns", "ns", Lower, "latency_p50_us on serve-mixed-open; warm_throughput_per_s on dse-analytic-roofline", "dse-sampled-cold"),
    layer("engine.serve.handle_ns.engine.p50", "ns", Lower, "latency_p50_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.engine.p99", "ns", Lower, "latency_p99_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.layer.p50", "ns", Lower, "latency_p50_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.layer.p99", "ns", Lower, "latency_p99_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.model.p50", "ns", Lower, "latency_p50_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.model.p99", "ns", Lower, "latency_p99_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.sweep.p50", "ns", Lower, "latency_p99_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.sweep.p99", "ns", Lower, "latency_p99_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.pareto.p50", "ns", Lower, "latency_p99_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.handle_ns.pareto.p99", "ns", Lower, "latency_p99_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.unattributed_ns.engine", "ns", Lower, "latency_p50_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.unattributed_ns.layer", "ns", Lower, "latency_p50_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.unattributed_ns.model", "ns", Lower, "latency_p50_us on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.transport_us", "us", Lower, "latency_p99_us, throughput_per_s on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.queue_wait_p99_us", "us", Lower, "latency_p99_us, throughput_per_s on serve-mixed-open", BOTH_DSE),
    layer("engine.serve.split_gap_share.layer", "ratio", Lower, "none: harness check that the layer-op split (in-process handle + transport of the engine ops + queue wait) adds up to the client p50", "all"),
    layer("engine.serve.split_gap_share.model", "ratio", Lower, "none: harness check that the model-op split (in-process handle + transport of the engine ops + queue wait) adds up to the client p50", "all"),
    // The pe map's misses are `engine.cache.price.misses`: the price map
    // delegates every miss to it, and `CacheStats` counts each once.
    layer("engine.cache.pe.entries", "count", Lower, "none: distinct syntheses held after the cold sweep", "all"),
    layer("engine.cache.price.hits", "count", Higher, "throughput_per_s on dse-analytic-roofline", "dse-sampled-cold"),
    layer("engine.cache.price.misses", "count", Lower, "throughput_per_s on both dse workloads", SERVE),
    layer("engine.cache.price.hit_ratio", "ratio", Higher, "throughput_per_s on dse-analytic-roofline; steady on serve-mixed-open", "dse-sampled-cold"),
    layer("engine.cache.cycle.hits", "count", Higher, "throughput_per_s on dse-sampled-cold", SERVE),
    layer("engine.cache.cycle.misses", "count", Lower, "throughput_per_s on dse-sampled-cold (sampler runs)", SERVE),
    layer("engine.cache.cycle.hit_ratio", "ratio", Higher, "throughput_per_s on dse-sampled-cold; steady on serve-mixed-open", "dse-analytic-roofline"),
    layer("engine.cache.model.hits", "count", Higher, "latency_p50_us on serve-mixed-open", BOTH_DSE),
    layer("engine.cache.model.misses", "count", Lower, "throughput_per_s on dse-sampled-cold (whole-model walks)", SERVE),
    layer("engine.cache.model.hit_ratio", "ratio", Higher, "latency_p50_us on serve-mixed-open (steady)", BOTH_DSE),
    layer("engine.cache.restart_hit_ratio", "ratio", Higher, "warm_throughput_per_s on both dse workloads (should read 1.0)", SERVE),
    layer("engine.schedule.serial_cycles_ns", "ns", Lower, "throughput_per_s on dse-sampled-cold", "dse-analytic-roofline, serve-mixed-open"),
    layer("sim.serial_ns_per_round", "ns", Lower, "throughput_per_s on dse-sampled-cold", "dse-analytic-roofline, serve-mixed-open"),
    layer("engine.schedule.traffic_ns", "ns", Lower, "throughput_per_s on dse-analytic-roofline", "dse-sampled-cold, serve-mixed-open"),
    layer("engine.snapshot.encode_ns", "ns", Lower, "none: encoding is outside the timed restart", "all"),
    layer("engine.snapshot.decode_ns", "ns", Lower, "warm_throughput_per_s on both dse workloads", SERVE),
    layer("engine.snapshot.bytes", "bytes", Lower, "warm_throughput_per_s on both dse workloads", SERVE),
    layer("dse.space.enumerate_ns", "ns", Lower, "setup_s on both dse workloads", SERVE),
    // Per-point times come from a one-thread pass of `evaluate_with_model`
    // calls; busy_share divides their sum by the thread time of the
    // program's own `sweep_with_cache` (threads x its wall time).
    layer("dse.eval.point_ns.p50", "ns", Lower, "throughput_per_s on both dse workloads", SERVE),
    layer("dse.eval.point_ns.p99", "ns", Lower, "throughput_per_s on both dse workloads (the whole-model tail point sets the end)", SERVE),
    layer("dse.sweep.busy_share", "ratio", Higher, "throughput_per_s on both dse workloads (sweep executor scheduling)", SERVE),
    layer("dse.pareto_ns", "ns", Lower, "throughput_per_s on dse-analytic-roofline", "dse-sampled-cold (negligible share), serve-mixed-open"),
    layer("dse.emit.csv_ns", "ns", Lower, "throughput_per_s on dse-analytic-roofline", "dse-sampled-cold (negligible share), serve-mixed-open"),
    layer("dse.emit.csv_bytes", "bytes", Lower, "none: simulated output, must not change", "all"),
    layer("dse.serve_ops.slice_ns", "ns", Lower, "latency_p50_us, latency_p99_us on both dse workloads; latency_p99_us on serve-mixed-open", "none"),
    layer("pipeline.grid.cell_ns.p50", "ns", Lower, "none end to end: the models grid is a per-layer figure of this benchmark", "all"),
    layer("pipeline.grid.cell_ns.p99", "ns", Lower, "none end to end: the models grid is a per-layer figure of this benchmark", "all"),
    layer("pipeline.grid_ns", "ns", Lower, "none end to end: the models grid is a per-layer figure of this benchmark", "all"),
    layer("pipeline.grid_cells_per_s", "1/s", Higher, "none end to end: the models grid is a per-layer figure of this benchmark", "all"),
    layer("bench.gen_lag_p99_us", "us", Lower, "none: harness check (sender lateness)", "all"),
    layer("bench.backlog_max", "count", Lower, "none: harness check (largest unanswered count at the reference rate)", "all"),
    layer("bench.trace_overhead_share", "ratio", Lower, "none: harness check (traced over untraced time of the same calls, minus 1)", "all"),
    layer("serve.client_p50_us", "us", Lower, "latency_p50_us on serve-mixed-open (traced run)", BOTH_DSE),
    layer("serve.client_p99_us", "us", Lower, "latency_p99_us on serve-mixed-open (traced run)", BOTH_DSE),
    layer("serve.requests", "count", Higher, "none: sample count of the traced reference step", "all"),
    layer("dse.points", "count", Higher, "none: points per traced sweep", "all"),
];
