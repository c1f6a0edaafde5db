//! Pareto-front extraction over configurable objectives.
//!
//! An [`Objective`] maps a [`Metrics`] row to a scalar where **lower is
//! better** (maximization objectives are negated), and the front is the
//! set of feasible points no other feasible point dominates. Extraction is
//! order-independent: the returned indices are sorted, and permuting the
//! input permutes the front accordingly (property-tested in
//! `tests/properties.rs`).

use crate::eval::{Metrics, PointResult};

/// An optimization objective over evaluated design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize total array area.
    Area,
    /// Minimize workload wall-clock delay.
    Delay,
    /// Minimize energy per MAC.
    Energy,
    /// Minimize average power.
    Power,
    /// Maximize sustained throughput.
    Throughput,
    /// Maximize lane utilization.
    Utilization,
}

impl Objective {
    /// Every objective, in display order.
    pub const ALL: [Objective; 6] = [
        Objective::Area,
        Objective::Delay,
        Objective::Energy,
        Objective::Power,
        Objective::Throughput,
        Objective::Utilization,
    ];

    /// The default front: the paper's area/delay/energy trade surface.
    pub const DEFAULT: [Objective; 3] = [Objective::Area, Objective::Delay, Objective::Energy];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Area => "area",
            Objective::Delay => "delay",
            Objective::Energy => "energy",
            Objective::Power => "power",
            Objective::Throughput => "throughput",
            Objective::Utilization => "utilization",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Objective> {
        Objective::ALL
            .into_iter()
            .find(|o| o.name() == s.trim().to_ascii_lowercase())
    }

    /// Parses a comma-separated objective list.
    pub fn parse_list(s: &str) -> Result<Vec<Objective>, String> {
        let objectives: Vec<Objective> = s
            .split(',')
            .filter(|part| !part.trim().is_empty())
            .map(|part| Objective::parse(part).ok_or_else(|| format!("unknown objective `{part}`")))
            .collect::<Result<_, _>>()?;
        if objectives.len() < 2 {
            return Err("need at least two objectives for a front".into());
        }
        Ok(objectives)
    }

    /// Scalar score; **lower is better** for every objective.
    pub fn score(self, m: &Metrics) -> f64 {
        match self {
            Objective::Area => m.area_um2,
            Objective::Delay => m.delay_us,
            Objective::Energy => m.energy_per_mac_fj,
            Objective::Power => m.power_w,
            Objective::Throughput => -m.throughput_gops,
            Objective::Utilization => -m.utilization,
        }
    }
}

/// Whether `a` dominates `b`: no worse on every objective, strictly
/// better on at least one.
pub fn dominates(a: &Metrics, b: &Metrics, objectives: &[Objective]) -> bool {
    let mut strictly_better = false;
    for obj in objectives {
        let (sa, sb) = (obj.score(a), obj.score(b));
        if sa > sb {
            return false;
        }
        if sa < sb {
            strictly_better = true;
        }
    }
    strictly_better
}

/// [`dominates`] over pre-computed score vectors (one [`Objective::score`]
/// per objective, lower is better). This is the comparison a shard-merge
/// client replays from wire-shipped scores, so it must stay bit-identical
/// to the in-process path — both call sites compare the same `f64`s.
pub fn dominates_scores(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (sa, sb) in a.iter().zip(b) {
        if sa > sb {
            return false;
        }
        if sa < sb {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Indices (into `results`) of the Pareto-optimal feasible points, sorted
/// ascending. Infeasible points never enter the front.
pub fn pareto_front(results: &[PointResult], objectives: &[Objective]) -> Vec<usize> {
    assert!(!objectives.is_empty(), "need at least one objective");
    let feasible: Vec<(usize, &Metrics)> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.metrics.as_ref().map(|m| (i, m)))
        .collect();
    feasible
        .iter()
        .filter(|(_, m)| {
            !feasible
                .iter()
                .any(|(_, other)| dominates(other, m, objectives))
        })
        .map(|&(i, _)| i)
        .collect()
}

/// Union of per-(workload × precision) Pareto fronts, sorted ascending.
///
/// Absolute delay/energy are only comparable between points evaluating
/// the *same* workload (a small GEMM trivially "dominates" a large one on
/// raw delay) at the *same* operand precision (a W4 MAC moves half the
/// bits of a W8 one, so its raw delay is not the same computation), so
/// dominance is restricted to points sharing both. Restricting to the
/// default W8 reproduces the historical per-workload fronts exactly. The
/// global [`pareto_front`] is always a subset of this union: a point
/// non-dominated against everyone is non-dominated within its group.
pub fn pareto_front_per_workload(results: &[PointResult], objectives: &[Objective]) -> Vec<usize> {
    assert!(!objectives.is_empty(), "need at least one objective");
    /// Dominance-comparability group: workload name × (a, b, acc) widths.
    type GroupKey<'a> = (&'a str, (u32, u32, u32));
    let mut groups: std::collections::BTreeMap<GroupKey, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, r) in results.iter().enumerate() {
        if r.metrics.is_some() {
            let p = r.point.precision();
            groups
                .entry((r.point.workload.name(), (p.a_bits, p.b_bits, p.acc_bits)))
                .or_default()
                .push(i);
        }
    }
    let metric = |i: usize| results[i].metrics.as_ref().unwrap();
    let mut front: Vec<usize> = Vec::new();
    for members in groups.values() {
        front.extend(members.iter().copied().filter(|&i| {
            !members
                .iter()
                .any(|&j| dominates(metric(j), metric(i), objectives))
        }));
    }
    front.sort_unstable();
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{DesignPoint, DesignSpace};
    use tpe_arith::encode::EncodingKind;
    use tpe_core::arch::PeStyle;
    use tpe_engine::EngineSpec;
    use tpe_workloads::LayerShape;

    fn result(area: f64, delay: f64, energy: f64) -> PointResult {
        let point = DesignPoint::new(
            EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0),
            LayerShape::new("t", 8, 8, 8, 1),
        );
        PointResult {
            point,
            metrics: Some(Metrics {
                area_um2: area,
                delay_us: delay,
                energy_uj: energy,
                energy_per_mac_fj: energy,
                throughput_gops: 1.0 / delay,
                peak_tops: 1.0,
                utilization: 0.9,
                power_w: energy / delay,
                bytes_moved: 192.0,
                intensity_ops_per_byte: 2.0 * 64.0 / 192.0,
                bound: tpe_engine::Bound::Compute,
            }),
        }
    }

    #[test]
    fn front_drops_dominated_points() {
        let results = vec![
            result(1.0, 1.0, 1.0), // front
            result(2.0, 2.0, 2.0), // dominated by 0
            result(0.5, 3.0, 1.0), // front (cheapest area)
            result(1.0, 1.0, 1.0), // tie with 0: neither dominates
        ];
        let front = pareto_front(&results, &[Objective::Area, Objective::Delay]);
        assert_eq!(front, vec![0, 2, 3]);
    }

    #[test]
    fn infeasible_points_stay_out() {
        let mut results = vec![result(1.0, 1.0, 1.0)];
        results.push(PointResult {
            metrics: None,
            ..results[0].clone()
        });
        let front = pareto_front(&results, &Objective::DEFAULT);
        assert_eq!(front, vec![0]);
    }

    #[test]
    fn single_objective_front_is_the_minimum() {
        let results = vec![
            result(3.0, 1.0, 1.0),
            result(1.0, 2.0, 2.0),
            result(2.0, 3.0, 3.0),
        ];
        let front = pareto_front(&results, &[Objective::Area]);
        assert_eq!(front, vec![1]);
    }

    #[test]
    fn parse_list_round_trips_and_rejects() {
        let objs = Objective::parse_list("area, delay,energy").unwrap();
        assert_eq!(
            objs,
            vec![Objective::Area, Objective::Delay, Objective::Energy]
        );
        assert!(Objective::parse_list("area").is_err());
        assert!(Objective::parse_list("area,bogus").is_err());
        for o in Objective::ALL {
            assert_eq!(Objective::parse(o.name()), Some(o));
        }
    }

    #[test]
    fn maximization_objectives_invert() {
        let fast = result(1.0, 0.5, 1.0);
        let slow = result(1.0, 2.0, 1.0);
        assert!(dominates(
            fast.metrics.as_ref().unwrap(),
            slow.metrics.as_ref().unwrap(),
            &[Objective::Throughput]
        ));
    }

    #[test]
    fn per_workload_front_restricts_dominance_to_shared_workloads() {
        let mut tiny = result(5.0, 0.01, 5.0); // small GEMM: trivially fast
        tiny.point.workload = LayerShape::new("tiny", 2, 2, 2, 1).into();
        let big_winner = result(1.0, 100.0, 1.0);
        let big_loser = result(20.0, 200.0, 2.0);
        let results = vec![tiny, big_winner, big_loser];

        // Globally, the tiny workload's delay dominates everything but the
        // cheapest-area point survives.
        let global = pareto_front(&results, &[Objective::Area, Objective::Delay]);
        assert_eq!(global, vec![0, 1]);

        // Per workload, the big-workload winner is kept on its own merits
        // and the big-workload loser still falls.
        let per_wl = pareto_front_per_workload(&results, &[Objective::Area, Objective::Delay]);
        assert_eq!(per_wl, vec![0, 1]);
        let mut only_big = results.clone();
        only_big[1].metrics.as_mut().unwrap().area_um2 = 10.0; // now globally dominated by tiny
        let global2 = pareto_front(&only_big, &[Objective::Area, Objective::Delay]);
        assert_eq!(global2, vec![0], "tiny workload wipes the global front");
        let per_wl2 = pareto_front_per_workload(&only_big, &[Objective::Area, Objective::Delay]);
        assert_eq!(
            per_wl2,
            vec![0, 1],
            "per-workload front keeps the big-GEMM winner"
        );
    }

    #[test]
    fn real_sweep_front_is_nonempty_and_subset() {
        let cache = tpe_engine::EngineCache::new();
        let results: Vec<PointResult> = DesignSpace::quick()
            .enumerate()
            .iter()
            .map(|p| {
                crate::eval::evaluate_with_model(p, &cache, 5, tpe_engine::CycleModel::Sampled)
            })
            .collect();
        let front = pareto_front(&results, &Objective::DEFAULT);
        assert!(!front.is_empty());
        assert!(front.iter().all(|&i| results[i].feasible()));
        assert!(front.len() <= results.iter().filter(|r| r.feasible()).count());
    }
}
