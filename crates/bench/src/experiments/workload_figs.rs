//! Figures 11, 12 and 13: DNN/LLM workload comparisons of OPT4E against an
//! equal-area parallel-MAC TPE.
//!
//! The serial side prices and samples through `tpe-engine`'s canonical
//! evaluator — the same cached path `repro dse`, `repro models` and
//! `repro serve` use — so the figures can never drift from the sweeps.
//! The dense baseline keeps the core `dense_layer` model: its equal-area
//! lane scaling (a hypothetical MAC array grown to the OPT4E's silicon) is
//! a figure-specific comparison, not an engine anyone schedules onto.

use tpe_arith::encode::EncodingKind;
use tpe_core::arch::workload::dense_layer;
use tpe_core::arch::PeStyle;
use tpe_cost::report::{num, Table};
use tpe_engine::cache::SerialLayerRecord;
use tpe_engine::schedule::{cached_serial_cycles, serial_config};
use tpe_engine::{EngineCache, EnginePrice, EngineSpec, Evaluator, SampleProfile};
use tpe_sim::array::ClassicArch;
use tpe_workloads::models;
use tpe_workloads::{LayerShape, NetworkModel};

/// The paper's OPT4E configuration as an engine spec (Table VII corner).
fn opt4e() -> EngineSpec {
    EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0)
}

/// Area-equalization factor: how many MAC-array lanes fit in the OPT4E's
/// silicon (Figures 11/12 compare "a systolic array and the OPT4E
/// architecture of the same area").
fn equal_area_scale(eval: &Evaluator, spec: &EngineSpec) -> f64 {
    let target = eval.price(spec).expect("OPT4E prices at 2 GHz");
    let mac = eval
        .price(&EngineSpec::dense(
            PeStyle::TraditionalMac,
            ClassicArch::Tpu,
            1.0,
        ))
        .expect("MAC baseline prices at 1 GHz");
    target.area_um2 / mac.area_um2
}

/// One serial layer through the cached engine path: delay, utilization
/// band and energy (per-column clock gating, §VI).
struct SerialLayer {
    delay_us: f64,
    utilization: f64,
    busy_min: f64,
    busy_max: f64,
    energy_uj: f64,
}

fn serial_layer(
    eval: &Evaluator,
    spec: &EngineSpec,
    price: &EnginePrice,
    layer: &LayerShape,
    seed: u64,
) -> SerialLayer {
    let rec: SerialLayerRecord = cached_serial_cycles(
        eval.cache(),
        spec,
        layer,
        seed,
        SampleProfile::Single.caps(),
    );
    let cfg = serial_config(spec);
    let delay_us = rec.cycles / (spec.freq_ghz * 1e3);
    // Busy columns switch their NP PE instances; idle (waiting) columns
    // are clock-gated (§VI: early finishers "enter an idle state, saving
    // power").
    let idle_total = rec.cycles * cfg.mp as f64 - rec.busy_sum;
    let energy_uj =
        (rec.busy_sum * price.e_active_fj + idle_total * price.e_idle_fj) * cfg.np as f64 * 1e-9;
    SerialLayer {
        delay_us,
        utilization: rec.utilization(),
        busy_min: rec.busy_min / rec.cycles,
        busy_max: rec.busy_max / rec.cycles,
        energy_uj,
    }
}

/// Figure 11: per-sublayer delay and OPT4E column utilization for GPT-2
/// (`net = "gpt2"`) or MobileNetV3 (`net = "mobilenetv3"`).
pub fn fig11(net: &str) -> String {
    let eval = Evaluator::new(EngineCache::global());
    let spec = opt4e();
    let price = eval.price(&spec).expect("OPT4E prices");
    let scale = equal_area_scale(&eval, &spec);
    let layers = match net {
        "gpt2" => models::gpt2_decode_sublayers("L0", 1024),
        "mobilenetv3" => {
            let net = models::mobilenet_v3();
            net.layers
                .iter()
                .filter(|l| {
                    l.name.starts_with("b3")
                        || l.name.starts_with("b11")
                        || l.name.starts_with("b13")
                })
                .cloned()
                .collect()
        }
        other => panic!("unknown net {other}; use gpt2 or mobilenetv3"),
    };
    let mut t = Table::new([
        "sublayer",
        "K",
        "MAC delay(us)",
        "OPT4E delay(us)",
        "speedup",
        "util%",
        "busy-min%",
        "busy-max%",
    ]);
    for (i, layer) in layers.iter().enumerate() {
        let s = serial_layer(&eval, &spec, &price, layer, 1000 + i as u64);
        let d = dense_layer(layer, 1.0, scale);
        t.row([
            layer.name.clone(),
            layer.k.to_string(),
            num(d.delay_us, 3),
            num(s.delay_us, 3),
            num(d.delay_us / s.delay_us, 2),
            num(s.utilization * 100.0, 1),
            num(s.busy_min * 100.0, 1),
            num(s.busy_max * 100.0, 1),
        ]);
    }
    format!(
        "Figure 11 ({net}) — sublayer delay & OPT4E column utilization (equal-area MAC baseline)\n{}\n\
         paper utilization bands: GPT-2 96.0–98.2%; MobileNetV3 92.3–98.4% (DW dips, PW peaks)\n",
        t.render()
    )
}

/// Network-level aggregates for Figures 12–13: OPT4E (through the engine
/// evaluator) versus the equal-area dense baseline, per-layer seeds
/// `seed + i` as the figures have always used.
struct NetworkFig {
    speedup: f64,
    energy_ratio: f64,
    utilization: f64,
}

fn evaluate_network(
    eval: &Evaluator,
    spec: &EngineSpec,
    net: &NetworkModel,
    seed: u64,
) -> NetworkFig {
    let price = eval.price(spec).expect("serial engine prices");
    let scale = equal_area_scale(eval, spec);
    let mut serial_delay = 0.0;
    let mut serial_energy = 0.0;
    let mut dense_delay = 0.0;
    let mut dense_energy = 0.0;
    let mut util_weighted = 0.0;
    for (i, layer) in net.layers.iter().enumerate() {
        let s = serial_layer(eval, spec, &price, layer, seed + i as u64);
        let d = dense_layer(layer, 1.0, scale);
        util_weighted += s.utilization * s.delay_us;
        serial_delay += s.delay_us;
        serial_energy += s.energy_uj;
        dense_delay += d.delay_us;
        dense_energy += d.energy_uj;
    }
    NetworkFig {
        speedup: dense_delay / serial_delay,
        energy_ratio: serial_energy / dense_energy,
        utilization: util_weighted / serial_delay,
    }
}

/// Figure 12: normalized delay of OPT4E vs the parallel-MAC TPE across
/// networks, with the OPT4E idle ratio.
pub fn fig12() -> String {
    let eval = Evaluator::new(EngineCache::global());
    let spec = opt4e();
    let mut t = Table::new(["network", "norm. delay%", "util%", "idle%"]);
    for net in NetworkModel::all() {
        let r = evaluate_network(&eval, &spec, &net, 7);
        t.row([
            net.name.clone(),
            num(100.0 / r.speedup, 1),
            num(r.utilization * 100.0, 1),
            num((1.0 - r.utilization) * 100.0, 1),
        ]);
    }
    format!(
        "Figure 12 — normalized delay (MAC TPE = 100%) and OPT4E idle ratio\n{}\n\
         paper utilization band across backbones: 96.8–98.8%\n",
        t.render()
    )
}

/// Figure 13: normalized speedup and energy-consumption ratio across
/// networks.
pub fn fig13() -> String {
    let eval = Evaluator::new(EngineCache::global());
    let spec = opt4e();
    let mut t = Table::new(["network", "speedup", "energy ratio (OPT4E/MAC)"]);
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for net in NetworkModel::all() {
        let r = evaluate_network(&eval, &spec, &net, 13);
        rows.push((net.name.clone(), r.speedup, r.energy_ratio));
        t.row([net.name.clone(), num(r.speedup, 2), num(r.energy_ratio, 3)]);
    }
    let pick = |n: &str| {
        rows.iter()
            .find(|(name, _, _)| name == n)
            .map(|r| r.1)
            .unwrap_or(0.0)
    };
    format!(
        "Figure 13 — speedup & energy ratio of OPT4E vs equal-area parallel-MAC TPE\n{}\n\
         paper: MobileViT ×1.89, ViT ×2.02, GPT-2 ×2.16 are the largest speedups;\n\
         measured here: MobileViT ×{:.2}, ViT ×{:.2}, GPT-2 ×{:.2}\n\
         higher-reduction-dimension networks save more energy (paper §V-D)\n",
        t.render(),
        pick("MobileViT"),
        pick("ViT"),
        pick("GPT-2"),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig11_both_networks_render() {
        let g = super::fig11("gpt2");
        assert!(g.contains("qkv"));
        let m = super::fig11("mobilenetv3");
        assert!(m.contains("dw"));
    }

    #[test]
    #[should_panic(expected = "unknown net")]
    fn fig11_rejects_unknown() {
        super::fig11("alexnet");
    }

    /// The engine-evaluated serial side must agree with `tpe-core`'s
    /// original per-layer workload model bit for bit — the two paths share
    /// one sampler and one price.
    #[test]
    fn engine_path_matches_core_serial_layer() {
        use tpe_core::arch::workload as core_wl;
        use tpe_core::arch::ArchModel;
        use tpe_workloads::LayerShape;

        let eval = tpe_engine::Evaluator::new(tpe_engine::EngineCache::global());
        let spec = super::opt4e();
        let price = eval.price(&spec).unwrap();
        let arch = ArchModel::table7_ours()
            .into_iter()
            .find(|a| a.name == "OPT4E")
            .unwrap();
        let layer = LayerShape::new("probe", 64, 512, 256, 1);
        let ours = super::serial_layer(&eval, &spec, &price, &layer, 123);
        let core = core_wl::serial_layer(&arch, &layer, 123);
        assert_eq!(ours.delay_us.to_bits(), core.delay_us.to_bits());
        assert_eq!(ours.utilization.to_bits(), core.utilization.to_bits());
        assert_eq!(ours.energy_uj.to_bits(), core.energy_uj.to_bits());
        assert_eq!(ours.busy_min.to_bits(), core.busy_min.to_bits());
        assert_eq!(ours.busy_max.to_bits(), core.busy_max.to_bits());
    }
}
