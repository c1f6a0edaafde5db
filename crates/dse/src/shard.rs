//! Deterministic sharding of sweep slices and the merge that reassembles
//! shard responses byte-identical to the single-node answer.
//!
//! ## Partitioning
//!
//! A sweep slice is partitioned by **label hash**: design point `p`
//! belongs to shard `k` of `n` iff `fnv1a(p.label()) % n == k`
//! ([`ShardSpec::contains`]). The hash depends only on the point's stable
//! label — not on enumeration order, thread count, or which process asks —
//! so any process holding the same filter enumerates the same global
//! slice and agrees on the partition. Shard requests keep each point's
//! **global slice index** on the wire, which is what lets a merge client
//! interleave rows from any shard→process assignment back into
//! single-node order.
//!
//! ## Merge invariant (front-then-merge == merge-then-front)
//!
//! Per-point rows carry the Pareto flag of the *global* slice, which one
//! shard cannot know. Each shard therefore ships, for every point on its
//! *local* front, the exact objective scores (bit-exact `f64`s) and its
//! dominance group. The client then re-judges only those candidates
//! ([`merge_front`]): a point dominated within its shard is dominated in
//! the union (dominance is transitive and groups are preserved under
//! partitioning), so
//!
//! ```text
//! front(union of per-shard per-group fronts) == front(whole slice)
//! ```
//!
//! — property-tested in `tests/properties.rs` for arbitrary shard counts
//! and assignments. Demoted candidates swap in the pre-rendered
//! non-front CSV row (`csv_off`), so merged bytes equal single-node bytes.

use std::collections::BTreeMap;

use tpe_engine::render::ok_line;
use tpe_engine::serve::{parse_flat_object, Fields};
use tpe_engine::CycleModel;

use crate::eval::PointResult;
use crate::pareto::{dominates_scores, Objective};

/// One shard of a key-hash partition: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Which shard this is (0-based, `< count`).
    pub index: u64,
    /// Total number of shards (≥ 1).
    pub count: u64,
}

impl ShardSpec {
    /// Parses the wire/CLI form `"k/n"`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard `{s}` must be `k/n` (e.g. `0/4`)"))?;
        let index: u64 = k.parse().map_err(|e| format!("shard index `{k}`: {e}"))?;
        let count: u64 = n.parse().map_err(|e| format!("shard count `{n}`: {e}"))?;
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s)"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// The wire form `"k/n"`.
    pub fn spell(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }

    /// Whether a design-point label falls in this shard:
    /// `fnv1a(label) % count == index`.
    pub fn contains(&self, label: &str) -> bool {
        tpe_engine::fnv1a(label) % self.count == self.index
    }
}

/// The dominance-comparability group of a point, as an opaque key — the
/// same (workload × precision) grouping
/// [`crate::pareto::pareto_front_per_workload`] uses. Only equality
/// matters to the merge.
pub fn group_key(r: &PointResult) -> String {
    let p = r.point.precision();
    format!(
        "{}|{},{},{}",
        r.point.workload.name(),
        p.a_bits,
        p.b_bits,
        p.acc_bits
    )
}

/// The point's objective scores (lower is better), `None` when
/// infeasible. These are the exact `f64`s in-process dominance compares.
pub fn scores_of(r: &PointResult, objectives: &[Objective]) -> Option<Vec<f64>> {
    let m = r.metrics.as_ref()?;
    Some(objectives.iter().map(|o| o.score(m)).collect())
}

/// Renders scores for the wire as comma-joined `f64::to_bits` hex — an
/// exact encoding, so the client re-judges dominance on identical bits.
pub fn encode_scores(scores: &[f64]) -> String {
    scores
        .iter()
        .map(|s| format!("{:016x}", s.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses [`encode_scores`] output back into the exact `f64`s.
pub fn decode_scores(s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|part| {
            u64::from_str_radix(part, 16)
                .map(f64::from_bits)
                .map_err(|e| format!("score bits `{part}`: {e}"))
        })
        .collect()
}

/// One shard-local front member, as reassembled by the merge client:
/// global slice index, dominance group, exact objective scores.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontCandidate {
    /// Global slice index of the point.
    pub index: usize,
    /// Opaque dominance group (see [`group_key`]).
    pub group: String,
    /// Objective scores, lower better (see [`scores_of`]).
    pub scores: Vec<f64>,
}

/// Global Pareto front over the union of per-shard local fronts: the
/// indices (sorted ascending) of candidates no same-group candidate
/// dominates. Because every point dominated within its shard is dominated
/// in the whole slice, judging only the local-front survivors yields
/// exactly the whole-slice per-workload front.
pub fn merge_front(candidates: &[FrontCandidate]) -> Vec<usize> {
    let mut groups: BTreeMap<&str, Vec<&FrontCandidate>> = BTreeMap::new();
    for c in candidates {
        groups.entry(&c.group).or_default().push(c);
    }
    let mut front: Vec<usize> = Vec::new();
    for members in groups.values() {
        front.extend(members.iter().filter_map(|c| {
            let dominated = members
                .iter()
                .any(|other| dominates_scores(&other.scores, &c.scores));
            (!dominated).then_some(c.index)
        }));
    }
    front.sort_unstable();
    front
}

/// A parsed per-point response line.
struct ShardPoint {
    index: usize,
    label: String,
    feasible: bool,
    csv: String,
    /// `(group, scores, csv_off)` — present exactly on local-front rows.
    merge_fields: Option<(String, Vec<f64>, String)>,
}

/// A parsed shard response: the summary fields plus its point rows.
struct ShardResponse {
    id: u64,
    op: String,
    filter: String,
    model: Option<String>,
    cycle_model: CycleModel,
    seed: u64,
    objectives: String,
    csv_header: String,
    shard: ShardSpec,
    points: u64,
    feasible: u64,
    rows: Vec<ShardPoint>,
}

/// Parses one shard reply line into its fields.
fn parse_line(line: &str, what: &str) -> Result<Fields, String> {
    parse_flat_object(line)
        .map(Fields)
        .map_err(|e| format!("{what}: {e}"))
}

/// Names the shard response as the source of a field error.
fn shard_err(e: String) -> String {
    format!("shard response: {e}")
}

fn parse_shard_response(lines: &[String]) -> Result<ShardResponse, String> {
    let summary_line = lines.first().ok_or("empty shard response")?;
    let summary = parse_line(summary_line, "shard summary")?;
    let text = |key: &str| summary.str(key).map(str::to_string).map_err(shard_err);
    let uint = |key: &str| summary.uint(key).map_err(shard_err);
    if !summary.bool("ok").map_err(shard_err)? {
        return Err(format!(
            "shard request failed: {}",
            text("error").unwrap_or_else(|_| summary_line.clone())
        ));
    }
    let op = text("op")?;
    if op != "sweep" && op != "pareto" {
        return Err(format!(
            "op `{op}` is not mergeable (expected sweep|pareto)"
        ));
    }
    let shard = ShardSpec::parse(&text("shard").map_err(|_| {
        "shard summary carries no `shard` field — was the request stamped `shard:k/n`?".to_string()
    })?)?;
    let points_follow = uint("points_follow")? as usize;
    if points_follow != lines.len() - 1 {
        return Err(format!(
            "shard response announced {points_follow} point line(s) but carries {}",
            lines.len() - 1
        ));
    }
    let mut rows = Vec::with_capacity(lines.len() - 1);
    for line in &lines[1..] {
        let row = parse_line(line, "shard point line")?;
        let text = |key: &str| row.str(key).map(str::to_string).map_err(shard_err);
        let merge_fields = if row.bool("pareto").map_err(shard_err)? {
            let group = text("group").map_err(|_| {
                "shard front row lacks merge fields (group/scores/csv_off)".to_string()
            })?;
            Some((group, decode_scores(&text("scores")?)?, text("csv_off")?))
        } else {
            None
        };
        rows.push(ShardPoint {
            index: row.uint("index").map_err(shard_err)? as usize,
            label: text("label")?,
            feasible: row.bool("feasible").map_err(shard_err)?,
            csv: text("csv")?,
            merge_fields,
        });
    }
    Ok(ShardResponse {
        id: uint("id")?,
        op,
        filter: text("filter")?,
        model: text("model").ok(),
        cycle_model: summary.cycle_model().map_err(shard_err)?,
        seed: uint("seed")?,
        objectives: text("objectives")?,
        csv_header: text("csv_header")?,
        shard,
        points: uint("points")?,
        feasible: uint("feasible")?,
        rows,
    })
}

/// Reassembles one request's shard responses into the exact response
/// lines a single (unsharded) server answers for the same request —
/// summary plus per-point lines, byte-identical.
///
/// Each element of `shards` is the complete response-line group
/// (summary plus point lines) one shard returned for the request, in
/// **any** order:
/// the merge keys on the `shard:k/n` echo, not on position, so any
/// shard→process assignment reassembles identically. Every shard
/// `0..n-1` must appear exactly once, the requests must have been
/// stamped `points:true`, and all summaries must echo the same
/// filter/model/seed/objectives.
pub fn merge_shard_responses(shards: &[Vec<String>]) -> Result<Vec<String>, String> {
    if shards.is_empty() {
        return Err("no shard responses to merge".into());
    }
    let parsed: Vec<ShardResponse> = shards
        .iter()
        .map(|lines| parse_shard_response(lines))
        .collect::<Result<_, _>>()?;
    let first = &parsed[0];
    let mut seen = vec![false; shards.len()];
    for p in &parsed {
        if p.shard.count != shards.len() as u64 {
            return Err(format!(
                "shard {} expects {} shard(s) but {} response group(s) were provided",
                p.shard.spell(),
                p.shard.count,
                shards.len()
            ));
        }
        let slot = &mut seen[p.shard.index as usize];
        if *slot {
            return Err(format!("duplicate responses for shard {}", p.shard.spell()));
        }
        *slot = true;
        if (
            &p.id,
            &p.op,
            &p.filter,
            &p.model,
            &p.cycle_model,
            &p.seed,
            &p.objectives,
            &p.csv_header,
        ) != (
            &first.id,
            &first.op,
            &first.filter,
            &first.model,
            &first.cycle_model,
            &first.seed,
            &first.objectives,
            &first.csv_header,
        ) {
            return Err(format!(
                "shard {} answered a different request than shard {}",
                p.shard.spell(),
                first.shard.spell()
            ));
        }
    }

    // Candidates: every shard-local front member, re-judged globally.
    let mut candidates: Vec<FrontCandidate> = Vec::new();
    let mut indices_seen = std::collections::BTreeSet::new();
    for p in &parsed {
        for row in &p.rows {
            if !indices_seen.insert(row.index) {
                return Err(format!(
                    "duplicate global index {} across shards",
                    row.index
                ));
            }
            if let Some((group, scores, _)) = &row.merge_fields {
                candidates.push(FrontCandidate {
                    index: row.index,
                    group: group.clone(),
                    scores: scores.clone(),
                });
            }
        }
    }
    let front = merge_front(&candidates);

    let mut rows: Vec<&ShardPoint> = parsed.iter().flat_map(|p| p.rows.iter()).collect();
    rows.sort_unstable_by_key(|r| r.index);
    let total_points: u64 = parsed.iter().map(|p| p.points).sum();
    let total_feasible: u64 = parsed.iter().map(|p| p.feasible).sum();

    let is_pareto = first.op == "pareto";
    let payload: Vec<(&ShardPoint, bool, &str)> = rows
        .iter()
        .filter_map(|row| {
            let on_front = front.binary_search(&row.index).is_ok();
            if is_pareto {
                // The pareto payload is the front itself: demoted
                // candidates vanish, survivors keep their on-front row.
                return on_front.then_some((*row, true, row.csv.as_str()));
            }
            // Sweep rows all stay; demoted candidates swap in the
            // pre-rendered non-front CSV row.
            let csv = match (&row.merge_fields, on_front) {
                (Some((_, _, csv_off)), false) => csv_off.as_str(),
                _ => row.csv.as_str(),
            };
            Some((*row, on_front, csv))
        })
        .collect();

    let id = first.id;
    let mut out = Vec::with_capacity(1 + payload.len());
    let summary = crate::serve_ops::render_summary(
        &first.op,
        &first.filter,
        first.model.as_deref(),
        None,
        first.cycle_model,
        first.seed,
        &first.objectives,
        total_points as usize,
        total_feasible as usize,
        front.len(),
        payload.len(),
    );
    out.push(ok_line(id, &summary));
    for (row, on_front, csv) in payload {
        let body = crate::serve_ops::render_point(
            &first.op,
            row.index,
            &row.label,
            row.feasible,
            on_front,
            csv,
            "",
        );
        out.push(ok_line(id, &body));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_spells_and_rejects() {
        let s = ShardSpec::parse("2/5").unwrap();
        assert_eq!((s.index, s.count), (2, 5));
        assert_eq!(s.spell(), "2/5");
        assert_eq!(ShardSpec::parse("0/1").unwrap().spell(), "0/1");
        for bad in ["", "3", "5/5", "7/4", "a/2", "1/b", "1/0", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn every_label_lands_in_exactly_one_shard() {
        let labels = ["a", "OPT4E[EN-T]/28nm@2.00GHz/resnet18", "x/y@W4", ""];
        for n in 1..=7u64 {
            for label in labels {
                let owners = (0..n)
                    .filter(|&k| ShardSpec { index: k, count: n }.contains(label))
                    .count();
                assert_eq!(owners, 1, "label `{label}` with {n} shards");
            }
        }
    }

    #[test]
    fn scores_round_trip_exactly_through_hex() {
        let scores = vec![1.5, -0.0, f64::MIN_POSITIVE, 1e300, -123.456789];
        let decoded = decode_scores(&encode_scores(&scores)).unwrap();
        assert_eq!(scores.len(), decoded.len());
        for (a, b) in scores.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_scores("zz").is_err());
    }

    #[test]
    fn merge_front_respects_groups_and_ties() {
        let c = |index, group: &str, scores: &[f64]| FrontCandidate {
            index,
            group: group.into(),
            scores: scores.to_vec(),
        };
        let candidates = vec![
            c(0, "g1", &[1.0, 1.0]), // dominates 2
            c(2, "g1", &[2.0, 2.0]),
            c(5, "g2", &[9.0, 9.0]), // different group: survives
            c(7, "g1", &[1.0, 1.0]), // exact tie with 0: both survive
        ];
        assert_eq!(merge_front(&candidates), vec![0, 5, 7]);
        assert!(merge_front(&[]).is_empty());
    }

    #[test]
    fn merge_rejects_inconsistent_shard_sets() {
        let summary = |k: u64, n: u64, seed: u64| {
            vec![
                format!(
                "{{\"id\":1,\"ok\":true,\"op\":\"sweep\",\"filter\":\"f\",\"shard\":\"{k}/{n}\",\
                 \"seed\":{seed},\"objectives\":\"area,delay,energy\",\"points\":0,\
                 \"feasible\":0,\"front\":0,\"csv_header\":\"h\",\"points_follow\":0"
            ) + "}",
            ]
        };
        // Wrong count vs provided groups.
        assert!(merge_shard_responses(&[summary(0, 3, 42)]).is_err());
        // Duplicate shard index.
        assert!(merge_shard_responses(&[summary(0, 2, 42), summary(0, 2, 42)]).is_err());
        // Mismatched request echo (seed differs).
        assert!(merge_shard_responses(&[summary(0, 2, 42), summary(1, 2, 43)]).is_err());
        // Unstamped response.
        let unstamped = vec![
            "{\"id\":1,\"ok\":true,\"op\":\"sweep\",\"filter\":\"f\",\"seed\":42,\
             \"objectives\":\"a,b\",\"points\":0,\"feasible\":0,\"front\":0,\
             \"csv_header\":\"h\",\"points_follow\":0}"
                .to_string(),
        ];
        let err = merge_shard_responses(&[unstamped]).unwrap_err();
        assert!(err.contains("shard"), "{err}");
        // Error lines surface their message.
        let failed = vec!["{\"id\":1,\"ok\":false,\"error\":\"boom\"}".to_string()];
        let err = merge_shard_responses(&[failed]).unwrap_err();
        assert!(err.contains("boom"), "{err}");
    }
}
