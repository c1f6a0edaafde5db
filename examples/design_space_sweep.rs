//! Design-space sweep: enumerate the legal cross product of
//! (PE style × topology × encoding × corner × workload), evaluate every
//! point in parallel with a memoized synthesis cache, and print the
//! area/delay/energy Pareto front.
//!
//! ```text
//! cargo run --release --example design_space_sweep [filter]
//! ```
//!
//! An optional argument filters points by label substring, e.g.
//! `OPT4E` or `28nm@2.00`.

use tpe::dse::emit::to_csv;
use tpe::dse::{
    pareto_front_per_workload, sweep_with_cache, DesignSpace, EngineCache, Objective, SweepConfig,
};

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let space = DesignSpace::paper_default();
    let points = space.enumerate_filtered(&filter);
    println!(
        "design space: {} legal points over 6 axes{}",
        points.len(),
        if filter.is_empty() {
            String::new()
        } else {
            format!(" (filter `{filter}`)")
        }
    );
    assert!(!points.is_empty(), "filter matched nothing");

    // Sweep serially and in parallel: the outputs must be byte-identical,
    // and the wall-clock difference is the executor's scaling.
    let serial = sweep_with_cache(
        &points,
        SweepConfig {
            threads: 1,
            seed: 42,
            ..SweepConfig::default()
        },
        EngineCache::global(),
    );
    let parallel = sweep_with_cache(
        &points,
        SweepConfig {
            threads: 0,
            seed: 42,
            ..SweepConfig::default()
        },
        EngineCache::global(),
    );
    assert_eq!(serial.results, parallel.results, "determinism violated");
    println!(
        "swept twice: {:.0} ms on 1 thread vs {:.0} ms on {} threads (×{:.2}); \
         cache {:.1}% hits ({} PE/corner pairs priced once)",
        serial.elapsed.as_secs_f64() * 1e3,
        parallel.elapsed.as_secs_f64() * 1e3,
        parallel.threads,
        serial.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64().max(1e-9),
        parallel.cache.hit_rate() * 100.0,
        parallel.cache.price_misses,
    );
    println!(
        "feasible: {} / {} points close timing at their corner",
        parallel.feasible_count(),
        points.len()
    );

    let objectives = [Objective::Area, Objective::Delay, Objective::Energy];
    let front = pareto_front_per_workload(&parallel.results, &objectives);
    println!(
        "\nPer-workload Pareto front over [area, delay, energy/MAC] — {} points:",
        front.len()
    );
    for &i in &front {
        let r = &parallel.results[i];
        let m = r.metrics.as_ref().unwrap();
        println!(
            "  {:<44} area {:>9.0} um2   delay {:>9.2} us   {:>7.2} fJ/MAC   util {:.2}",
            r.point.label(),
            m.area_um2,
            m.delay_us,
            m.energy_per_mac_fj,
            m.utilization
        );
    }

    // The CSV of the full sweep is a one-liner away:
    let csv = to_csv(&parallel.results, &front);
    println!(
        "\nCSV: {} rows × {} columns (emit::to_csv / emit::to_json)",
        csv.lines().count() - 1,
        csv.lines().next().unwrap().split(',').count()
    );
}
