//! The `fleet` batch op: engine/replica allocation for a traffic mix.
//!
//! Given a set of traffic **streams** — each a (network model, operand
//! precision, queries-per-second) triple — and a roster of candidate
//! engines, the op picks, per stream, the engine and replica count that
//! meets the stream's throughput (and optional latency bound) at minimum
//! total cost:
//!
//! ```text
//! {"id":1,"op":"fleet","mix":"resnet18:w8:2000;resnet50:w8:350",
//!  "engines":"OPT3[EN-T]/28nm@2.00GHz,OPT4E[EN-T]/28nm@2.00GHz",
//!  "objective":"area","max_delay_us":200000}
//! ```
//!
//! The model is deliberately first-order: one replica of engine `E`
//! serves one query every `delay_us(E, model)` microseconds (the same
//! end-to-end model delay every sweep reports), so a stream of `q` qps
//! needs `ceil(q · delay_us / 10⁶)` replicas. Cost is `replicas ×
//! area_um2` (`"objective":"area"`, default) or `replicas × power_w`
//! (`"objective":"power"`); ties break toward fewer replicas, then the
//! lexically-smallest engine label, so the answer is deterministic.
//! Streams with no engine meeting the bound answer `"feasible":false`
//! rather than failing the whole request.
//!
//! An optional `"memory":"<corner>"` field pins every candidate engine to
//! that [`tpe_engine::MemorySpec`] corner (any `@corner` suffix already in
//! an `engines` label still wins). The allocation then sizes replicas on
//! the **roofline-bounded** model delay — a DRAM-starved corner buys more
//! replicas of the same silicon, not an optimistic compute-only count —
//! and each stream line reports which wall its chosen engine hit via
//! `"bound":"compute"|"sram"|"dram"`.

use tpe_arith::Precision;
use tpe_engine::render::json_escape;
use tpe_engine::serve::{parse_precision, Fields, JsonValue, DEFAULT_SEED};
use tpe_engine::{EngineCache, EngineSpec, SweepWorkload};
use tpe_workloads::NetworkModel;

use crate::eval::evaluate_with_model;
use crate::space::DesignPoint;

/// Which per-replica cost the allocator minimizes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FleetObjective {
    Area,
    Power,
}

impl FleetObjective {
    fn parse(s: &str) -> Result<FleetObjective, String> {
        match s.to_ascii_lowercase().as_str() {
            "area" => Ok(FleetObjective::Area),
            "power" => Ok(FleetObjective::Power),
            other => Err(format!(
                "unknown fleet objective `{other}` (expected area|power)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            FleetObjective::Area => "area",
            FleetObjective::Power => "power",
        }
    }
}

/// One parsed `model:precision:qps` stream.
struct Stream {
    spelled: String,
    net: NetworkModel,
    precision_token: String,
    precision: Precision,
    qps: f64,
}

fn parse_stream(token: &str) -> Result<Stream, String> {
    let mut parts = token.split(':');
    let (model, prec, qps) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(q), None) => (m.trim(), p.trim(), q.trim()),
        _ => {
            return Err(format!(
                "stream `{token}` must be `model:precision:qps` (e.g. `resnet18:w8:2000`)"
            ))
        }
    };
    let catalog = NetworkModel::catalog();
    let net = match catalog.iter().find(|n| n.is_named(model)) {
        Some(hit) => hit.clone(),
        None => {
            let matches: Vec<&NetworkModel> =
                catalog.iter().filter(|n| n.name_contains(model)).collect();
            match matches.as_slice() {
                [] => return Err(format!("no network model matches `{model}`")),
                [one] => (*one).clone(),
                many => {
                    return Err(format!(
                        "model `{model}` is ambiguous ({} catalog matches) — spell the full name",
                        many.len()
                    ))
                }
            }
        }
    };
    let precision = parse_precision(prec)?;
    let qps: f64 = qps
        .parse()
        .map_err(|e| format!("stream qps `{qps}`: {e}"))?;
    if !(qps.is_finite() && qps > 0.0) {
        return Err(format!("stream qps must be positive, got `{qps}`"));
    }
    Ok(Stream {
        spelled: token.trim().to_string(),
        net,
        precision_token: prec.to_string(),
        precision,
        qps,
    })
}

/// Handles one `fleet` request (see the module docs for the wire shape).
pub(crate) fn fleet_op(fields: &Fields, cache: &EngineCache) -> Result<Vec<String>, String> {
    let mix = fields.str("mix")?;
    let streams: Vec<Stream> = mix
        .split(';')
        .filter(|t| !t.trim().is_empty())
        .map(parse_stream)
        .collect::<Result<_, _>>()?;
    if streams.is_empty() {
        return Err("fleet `mix` names no streams".into());
    }
    let engines: Vec<EngineSpec> = match fields.opt_str("engines")? {
        None => tpe_engine::roster::paper_roster(),
        Some(list) => list
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|label| {
                tpe_engine::roster::find(label.trim())
                    .ok_or_else(|| format!("unknown engine `{}`", label.trim()))
            })
            .collect::<Result<_, _>>()?,
    };
    if engines.is_empty() {
        return Err("fleet `engines` names no engines".into());
    }
    let objective = match fields.opt_str("objective")? {
        None => FleetObjective::Area,
        Some(s) => FleetObjective::parse(s)?,
    };
    let max_delay_us = match fields.0.get("max_delay_us") {
        None => None,
        Some(JsonValue::Num(n)) if n.is_finite() && *n > 0.0 => Some(*n),
        Some(_) => return Err("field `max_delay_us` must be a positive number".into()),
    };
    let seed = fields.uint_or("seed", DEFAULT_SEED)?;
    let cycle_model = fields.cycle_model()?;
    let memory = fields.memory()?;

    /// A feasible (engine, replicas) pick for one stream.
    struct Pick {
        label: String,
        replicas: u64,
        delay_us: f64,
        cost: f64,
        bound: tpe_engine::Bound,
    }
    let mut lines = Vec::with_capacity(1 + streams.len());
    let mut feasible_streams = 0usize;
    let mut total_replicas = 0u64;
    let mut total_cost = 0.0f64;
    let mut stream_lines = Vec::with_capacity(streams.len());
    for s in &streams {
        let mut best: Option<Pick> = None;
        for engine in &engines {
            let mut spec = engine.clone().with_precision(s.precision);
            // A corner spelled in the engine label itself stays; the
            // request-level field fills in the rest of the roster.
            if let Some(mem) = memory {
                if spec.memory.is_unbounded() {
                    spec = spec.with_memory(mem);
                }
            }
            let point = DesignPoint::new(spec, SweepWorkload::Model(s.net.clone()));
            let r = evaluate_with_model(&point, cache, seed, cycle_model);
            let Some(m) = &r.metrics else { continue };
            if max_delay_us.is_some_and(|bound| m.delay_us > bound) {
                continue;
            }
            // One replica answers a query every `delay_us`; replicas are
            // whole machines, so round the required parallelism up.
            let replicas = ((s.qps * m.delay_us / 1e6).ceil() as u64).max(1);
            let per_replica = match objective {
                FleetObjective::Area => m.area_um2,
                FleetObjective::Power => m.power_w,
            };
            let pick = Pick {
                label: point.engine.label(),
                replicas,
                delay_us: m.delay_us,
                cost: replicas as f64 * per_replica,
                bound: m.bound,
            };
            let better = match &best {
                None => true,
                Some(b) => match pick.cost.total_cmp(&b.cost) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => {
                        (pick.replicas, &pick.label) < (b.replicas, &b.label)
                    }
                },
            };
            if better {
                best = Some(pick);
            }
        }
        let head = format!(
            "\"op\":\"fleet-point\",\"stream\":\"{}\",\"model\":\"{}\",\"precision\":\"{}\",\
             \"qps\":{}",
            json_escape(&s.spelled),
            json_escape(&s.net.name),
            json_escape(&s.precision_token),
            s.qps,
        );
        match best {
            Some(p) => {
                feasible_streams += 1;
                total_replicas += p.replicas;
                total_cost += p.cost;
                stream_lines.push(format!(
                    "{head},\"feasible\":true,\"engine\":\"{}\",\"replicas\":{},\
                     \"delay_us\":{},\"cost\":{},\"bound\":\"{}\"",
                    json_escape(&p.label),
                    p.replicas,
                    p.delay_us,
                    p.cost,
                    p.bound.label(),
                ));
            }
            None => stream_lines.push(format!("{head},\"feasible\":false")),
        }
    }

    lines.push(format!(
        "\"op\":\"fleet\",\"mix\":\"{}\",\"objective\":\"{}\",\"seed\":{seed},\
         \"streams\":{},\"engines\":{},\"feasible\":{feasible_streams},\
         \"total_replicas\":{total_replicas},\"total_cost\":{total_cost},\
         \"points_follow\":{}",
        json_escape(mix),
        objective.name(),
        streams.len(),
        engines.len(),
        stream_lines.len(),
    ));
    lines.extend(stream_lines);
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_ops::DseOps;
    use tpe_engine::serve::handle_request;

    fn ask(req: &str, cache: &EngineCache) -> Vec<String> {
        handle_request(req, cache, &DseOps).0
    }

    #[test]
    fn fleet_allocates_each_stream_deterministically() {
        let cache = EngineCache::new();
        let req = r#"{"id":1,"op":"fleet","mix":"resnet18:w8:2000","engines":"OPT3[EN-T]/28nm@2.00GHz,OPT4E[EN-T]/28nm@2.00GHz"}"#;
        let lines = ask(req, &cache);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].contains("\"op\":\"fleet\"")
                && lines[0].contains("\"streams\":1")
                && lines[0].contains("\"engines\":2")
                && lines[0].contains("\"objective\":\"area\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"feasible\":true") && lines[1].contains("\"replicas\":"),
            "{}",
            lines[1]
        );
        // Byte-deterministic across cache states.
        assert_eq!(lines, ask(req, &cache));
        assert_eq!(lines, ask(req, &EngineCache::new()));
    }

    #[test]
    fn fleet_scales_replicas_with_traffic() {
        let cache = EngineCache::new();
        let replicas_at = |qps: u32| {
            let req = format!(
                r#"{{"id":1,"op":"fleet","mix":"resnet18:w8:{qps}","engines":"OPT3[EN-T]/28nm@2.00GHz"}}"#
            );
            let lines = ask(&req, &cache);
            let tail = lines[1].split("\"replicas\":").nth(1).unwrap();
            tail.split(',').next().unwrap().parse::<u64>().unwrap()
        };
        let low = replicas_at(10);
        let high = replicas_at(100_000);
        assert!(high > low, "10 qps -> {low}, 100k qps -> {high}");
    }

    /// A DRAM-starved corner must be allocated honestly: the stream
    /// reports a `dram` bound, its delay stretches past the compute-only
    /// answer, and the stretched delay buys strictly more replicas of the
    /// same silicon.
    #[test]
    fn fleet_sizes_dram_bound_mixes_on_the_roofline_delay() {
        let cache = EngineCache::new();
        let parsed = |line: &str, key: &str| -> f64 {
            let tail = line.split(&format!("\"{key}\":")).nth(1).unwrap();
            tail.split([',', '}']).next().unwrap().parse().unwrap()
        };
        let ask_mix = |memory: &str| {
            let req = format!(
                r#"{{"id":1,"op":"fleet","mix":"resnet18:w8:200000","engines":"OPT3[EN-T]/28nm@2.00GHz"{memory}}}"#
            );
            ask(&req, &cache)
        };
        let free = ask_mix("");
        let starved = ask_mix(r#","memory":"edge""#);
        assert!(free[1].contains("\"bound\":\"compute\""), "{}", free[1]);
        assert!(starved[1].contains("\"bound\":\"dram\""), "{}", starved[1]);
        assert!(
            starved[1].contains("\"engine\":\"OPT3[EN-T]/28nm@2.00GHz@edge\""),
            "{}",
            starved[1]
        );
        assert!(
            parsed(&starved[1], "delay_us") > parsed(&free[1], "delay_us"),
            "roofline delay must exceed compute-only delay"
        );
        assert!(
            parsed(&starved[1], "replicas") > parsed(&free[1], "replicas"),
            "a memory-bound stream needs more replicas: {} vs {}",
            starved[1],
            free[1]
        );
        // A corner spelled in the engine label wins over the request
        // field, and an unknown corner is a request error.
        let req = r#"{"id":1,"op":"fleet","mix":"resnet18:w8:100","engines":"OPT3[EN-T]/28nm@2.00GHz@hbm","memory":"edge"}"#;
        let lines = ask(req, &cache);
        assert!(
            lines[1].contains("\"engine\":\"OPT3[EN-T]/28nm@2.00GHz@hbm\""),
            "{}",
            lines[1]
        );
        let bad = ask(
            r#"{"id":1,"op":"fleet","mix":"resnet18:w8:100","memory":"no-such"}"#,
            &cache,
        );
        assert!(bad[0].contains("unknown memory corner"), "{}", bad[0]);
    }

    #[test]
    fn fleet_honors_the_latency_bound() {
        let cache = EngineCache::new();
        // An impossible bound makes every stream infeasible — reported,
        // not an error.
        let req = r#"{"id":1,"op":"fleet","mix":"resnet18:w8:100","max_delay_us":0.001}"#;
        let lines = ask(req, &cache);
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(lines[0].contains("\"feasible\":0"), "{}", lines[0]);
        assert!(lines[1].contains("\"feasible\":false"), "{}", lines[1]);
    }

    #[test]
    fn fleet_rejects_malformed_requests() {
        let cache = EngineCache::new();
        for (req, needle) in [
            (r#"{"id":1,"op":"fleet"}"#, "missing field `mix`"),
            (r#"{"id":1,"op":"fleet","mix":""}"#, "names no streams"),
            (
                r#"{"id":1,"op":"fleet","mix":"resnet18:w8"}"#,
                "must be `model:precision:qps`",
            ),
            (
                r#"{"id":1,"op":"fleet","mix":"no-such-net:w8:10"}"#,
                "no network model",
            ),
            (
                r#"{"id":1,"op":"fleet","mix":"resnet18:w99:10"}"#,
                "unknown precision",
            ),
            (
                r#"{"id":1,"op":"fleet","mix":"resnet18:w8:-5"}"#,
                "must be positive",
            ),
            (
                r#"{"id":1,"op":"fleet","mix":"resnet18:w8:10","engines":"bogus"}"#,
                "unknown engine",
            ),
            (
                r#"{"id":1,"op":"fleet","mix":"resnet18:w8:10","objective":"cost"}"#,
                "unknown fleet objective",
            ),
            (
                r#"{"id":1,"op":"fleet","mix":"resnet18:w8:10","max_delay_us":-1}"#,
                "must be a positive number",
            ),
        ] {
            let lines = ask(req, &cache);
            assert_eq!(lines.len(), 1);
            assert!(lines[0].contains("\"ok\":false"), "{req} -> {}", lines[0]);
            assert!(lines[0].contains(needle), "{req} -> {}", lines[0]);
        }
    }
}
