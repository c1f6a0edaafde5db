//! Golden discipline for the dual cycle models.
//!
//! The sampled mode stays the default, and its snapshots are pinned
//! byte-identical by `golden.rs` (which never mentions cycle models —
//! exactly the point). This file adds the analytic side of the contract:
//!
//! * a pinned analytic-mode golden (`dse_default_analytic.csv`, the W8
//!   slice of the default space under `--cycle-model analytic`), and
//! * a projection test documenting **exactly** which CSV columns may
//!   differ between the two modes and which must not.
//!
//! Column contract (per `tpe_dse::emit::CSV_HEADER`):
//!
//! * **must not differ** — every identity column (label … repeats),
//!   `feasible`, and the synthesis-derived `area_um2`, `peak_tops`,
//!   `precision`: the cycle model only changes how serial sync rounds
//!   are priced, never what the silicon is.
//! * **may differ, serial rows only** — the cycle/latency-derived
//!   `delay_us`, `energy_uj`, `fj_per_mac`, `gops`, `utilization`,
//!   `power_w`: the sampler's Monte-Carlo estimate vs the closed-form
//!   expectation of the same distribution.
//! * **may differ on any row** — `pareto`: front membership is computed
//!   from the delay/energy objectives, so a serial point moving by a
//!   sampling error can promote or demote its dense neighbours.
//!
//! Dense engines never enter the serial cycle model, so a dense row must
//! be identical between modes in every column except `pareto`.
//!
//! Regenerate the analytic golden after a conscious model change with:
//! `REGEN_GOLDEN=1 cargo test -p tpe-bench --test cycle_model_golden`.

use tpe_dse::emit::to_csv;
use tpe_dse::{
    pareto_front_per_workload, sweep_with_cache, CycleModel, DesignPoint, DesignSpace, EngineCache,
    Objective, Precision, SweepConfig,
};

/// The W8 slice of the default space: 672 of the 2016 points — enough to
/// cover every engine style × topology × workload while keeping the
/// double (sampled + analytic) sweep affordable in debug test runs.
fn w8_points() -> Vec<DesignPoint> {
    let points: Vec<DesignPoint> = DesignSpace::paper_default()
        .enumerate()
        .into_iter()
        .filter(|p| p.engine.precision == Precision::W8)
        .collect();
    assert_eq!(points.len(), 672, "default-space W8 slice size changed");
    points
}

fn sweep_csv(points: &[DesignPoint], cycle_model: CycleModel) -> String {
    let outcome = sweep_with_cache(
        points,
        SweepConfig {
            threads: 1,
            seed: 42,
            cycle_model,
        },
        EngineCache::global(),
    );
    let front = pareto_front_per_workload(&outcome.results, &Objective::DEFAULT);
    to_csv(&outcome.results, &front)
}

/// The analytic-mode golden: the W8 default-space sweep under
/// `--cycle-model analytic` is pinned byte-identical (the closed form is
/// seed-independent, so this snapshot has no Monte-Carlo caveats at all).
#[test]
fn analytic_dse_w8_slice_matches_pinned_golden() {
    let csv = sweep_csv(&w8_points(), CycleModel::Analytic);
    let path = format!(
        "{}/tests/golden/dse_default_analytic.csv",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &csv).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    for (i, (a, e)) in csv.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "analytic golden: line {} drifted", i + 1);
    }
    assert_eq!(csv, expected, "analytic golden: byte-level drift");
}

/// Column indices in `CSV_HEADER` order.
const FEASIBLE: usize = 14;
const PARETO: usize = 15;
const AREA_UM2: usize = 16;
const PEAK_TOPS: usize = 21;
const PRECISION: usize = 24;
const MEMORY: usize = 25;
const BYTES_MOVED: usize = 26;
const INTENSITY: usize = 27;
const BOUND: usize = 28;
const TOPOLOGY: usize = 2;

/// The projection test: sweeps the same W8 slice under both modes and
/// enforces the column contract from the module docs, row by row.
#[test]
fn cross_mode_projection_pins_which_columns_may_differ() {
    let points = w8_points();
    let sampled = sweep_csv(&points, CycleModel::Sampled);
    let analytic = sweep_csv(&points, CycleModel::Analytic);
    assert_eq!(sampled.lines().count(), analytic.lines().count());

    let mut serial_cycle_columns_moved = false;
    for (i, (s_line, a_line)) in sampled.lines().zip(analytic.lines()).enumerate().skip(1) {
        // Default-space rows carry no quoted fields; a quote would break
        // the positional split below, so fail loudly instead of silently.
        assert!(
            !s_line.contains('"') && !a_line.contains('"'),
            "row {i} has quoted fields; projection split needs updating"
        );
        let s: Vec<&str> = s_line.split(',').collect();
        let a: Vec<&str> = a_line.split(',').collect();
        assert_eq!(s.len(), a.len(), "row {i}: column count diverged");

        // Identity + feasibility prefix: must never differ.
        for c in 0..=FEASIBLE {
            assert_eq!(s[c], a[c], "row {i}: identity column {c} diverged");
        }
        // Synthesis-derived columns: must never differ. Neither may the
        // memory-hierarchy group: traffic is pure tiling geometry (no
        // cycles involved), and the `Unbounded` default binds nothing.
        for c in [
            AREA_UM2,
            PEAK_TOPS,
            PRECISION,
            MEMORY,
            BYTES_MOVED,
            INTENSITY,
            BOUND,
        ] {
            assert_eq!(s[c], a[c], "row {i}: synthesis column {c} diverged");
        }
        // Dense rows never touch the serial cycle model: everything but
        // the (front-relative) pareto marker must be identical.
        if s[TOPOLOGY] != "Serial" {
            for (c, (sv, av)) in s.iter().zip(&a).enumerate() {
                if c != PARETO {
                    assert_eq!(sv, av, "row {i}: dense column {c} diverged");
                }
            }
        } else if s[FEASIBLE] == "1" {
            serial_cycle_columns_moved |= s[AREA_UM2 + 1..PRECISION]
                .iter()
                .zip(&a[AREA_UM2 + 1..PRECISION])
                .any(|(sv, av)| sv != av);
        }
    }
    // The partition has teeth only if the allowed columns actually move:
    // a Monte-Carlo estimate agreeing bit-for-bit with the closed form
    // across every serial row would mean one path is calling the other.
    assert!(
        serial_cycle_columns_moved,
        "no serial cycle-derived column differs — modes are not independent"
    );
}
