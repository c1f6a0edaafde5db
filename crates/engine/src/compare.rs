//! The Figure 11–13 comparison: a serial engine against a parallel-MAC
//! systolic array grown to the same silicon area.
//!
//! The serial side prices and samples through the cached evaluator — the
//! same path `repro dse`, `repro models` and `repro serve` use — so the
//! figures can never drift from the sweeps. The dense baseline is
//! `tpe-core`'s [`dense_layer`] model: its equal-area lane scaling (a
//! hypothetical MAC array grown to the serial engine's silicon) is a
//! figure-specific comparison, not an engine anyone schedules onto.

use tpe_core::arch::workload::dense_layer;
use tpe_core::arch::PeStyle;
use tpe_sim::array::ClassicArch;
use tpe_workloads::{LayerShape, NetworkModel};

use crate::caps::SampleProfile;
use crate::eval::Evaluator;
use crate::schedule::{cached_serial_cycles, serial_config};
use crate::spec::{EnginePrice, EngineSpec};

/// Area-equalization factor: how many 32×32 MAC-array lanes fit in
/// `spec`'s silicon (Figures 11/12 compare "a systolic array and the
/// OPT4E architecture of the same area").
///
/// # Panics
///
/// Panics if `spec` cannot close timing at its clock.
pub fn equal_area_scale(eval: &Evaluator, spec: &EngineSpec) -> f64 {
    let target = eval
        .price(spec)
        .unwrap_or_else(|| panic!("{} cannot close timing", spec.label()));
    let mac = eval
        .price(&EngineSpec::dense(
            PeStyle::TraditionalMac,
            ClassicArch::Tpu,
            1.0,
        ))
        .expect("MAC baseline prices at 1 GHz");
    target.area_um2 / mac.area_um2
}

/// One layer on a serial engine: delay, column utilization band and
/// energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialLayer {
    /// Wall-clock delay in microseconds.
    pub delay_us: f64,
    /// Average column busy fraction.
    pub utilization: f64,
    /// Busy fraction of the fastest column.
    pub busy_min: f64,
    /// Busy fraction of the slowest column.
    pub busy_max: f64,
    /// Energy in microjoules (idle columns clock-gated, §VI).
    pub energy_uj: f64,
}

/// Runs `layer` on the serial engine `spec` (priced as `price`) through
/// the cached sampler under [`SampleProfile::Single`], seeded with `seed`.
///
/// # Panics
///
/// Panics if `spec` is dense.
pub fn serial_layer(
    eval: &Evaluator,
    spec: &EngineSpec,
    price: &EnginePrice,
    layer: &LayerShape,
    seed: u64,
) -> SerialLayer {
    let cfg = serial_config(spec);
    let rec = cached_serial_cycles(
        eval.cache(),
        spec,
        layer,
        seed,
        SampleProfile::Single.caps(),
    );
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

/// A whole network on a serial engine versus the equal-area dense
/// baseline (Figures 12–13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkComparison {
    /// Speedup of the serial engine over the equal-area MAC array.
    pub speedup: f64,
    /// Energy ratio (serial / MAC) — below 1.0 means savings.
    pub energy_ratio: f64,
    /// Serial-array utilization across layers, weighted by delay.
    pub utilization: f64,
}

/// Compares `net` on the serial engine `spec` against the equal-area
/// dense baseline at 1 GHz; layer `i` samples with seed `seed + i`.
///
/// # Panics
///
/// Panics if `spec` is dense or cannot close timing at its clock.
pub fn evaluate_network(
    eval: &Evaluator,
    spec: &EngineSpec,
    net: &NetworkModel,
    seed: u64,
) -> NetworkComparison {
    let price = eval
        .price(spec)
        .unwrap_or_else(|| panic!("{} cannot close timing", spec.label()));
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
    NetworkComparison {
        speedup: dense_delay / serial_delay,
        energy_ratio: serial_energy / dense_energy,
        utilization: util_weighted / serial_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineCache;
    use tpe_arith::encode::EncodingKind;
    use tpe_workloads::models;

    fn opt4e() -> (Evaluator<'static>, EngineSpec, EnginePrice) {
        let eval = Evaluator::new(EngineCache::global());
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let price = eval.price(&spec).unwrap();
        (eval, spec, price)
    }

    /// GPT-2 linear sublayers (K ∈ {768, 3072}) keep OPT4E columns >95%
    /// busy — Figure 11(A) reports 96.0–98.2%. Attention sublayers with
    /// K = 64 sit lower.
    #[test]
    fn gpt2_sublayer_utilization_high() {
        let (eval, spec, price) = opt4e();
        for layer in models::gpt2_decode_sublayers("L0", 1024) {
            let r = serial_layer(&eval, &spec, &price, &layer, 42);
            let floor = if layer.k >= 512 { 0.95 } else { 0.85 };
            assert!(
                r.utilization > floor,
                "{}: utilization {:.3} (K={})",
                layer.name,
                r.utilization,
                layer.k
            );
            assert!(r.busy_max * 1.0001 >= r.utilization && r.utilization >= r.busy_min * 0.9999);
        }
    }

    /// MobileNetV3: DW layers (K = 9/25) utilize worse than wide PW layers
    /// — the Figure 11(B) dip (92.3–94.7% vs 97.3–98.4%).
    #[test]
    fn mobilenet_dw_dips_below_pw() {
        let (eval, spec, price) = opt4e();
        let net = models::mobilenet_v3();
        let dw = net.layers.iter().find(|l| l.name == "b13-dw5x5").unwrap();
        let pw = net.layers.iter().find(|l| l.name == "b13-pw-proj").unwrap();
        let rd = serial_layer(&eval, &spec, &price, dw, 7);
        let rp = serial_layer(&eval, &spec, &price, pw, 7);
        assert!(
            rd.utilization < rp.utilization,
            "DW {:.3} should dip below PW {:.3}",
            rd.utilization,
            rp.utilization
        );
        assert!(
            (0.85..0.97).contains(&rd.utilization),
            "DW util {:.3}",
            rd.utilization
        );
        assert!(rp.utilization > 0.95, "PW util {:.3}", rp.utilization);
    }

    /// The equal-area OPT4E beats the MAC array on a GPT-2 layer — the
    /// Figure 13 speedup family (paper: ×2.16 for GPT-2 overall).
    #[test]
    fn opt4e_beats_equal_area_mac_on_gpt2_layer() {
        let (eval, spec, price) = opt4e();
        let scale = equal_area_scale(&eval, &spec);
        let layer = &models::gpt2_decode_sublayers("L0", 1024)[4]; // fc1
        let s = serial_layer(&eval, &spec, &price, layer, 3);
        let d = dense_layer(layer, 1.0, scale);
        assert!(
            d.delay_us / s.delay_us > 1.2,
            "speedup {:.2} too small",
            d.delay_us / s.delay_us
        );
    }

    /// Network evaluation produces sane aggregates.
    #[test]
    fn resnet18_network_eval() {
        let (eval, spec, _) = opt4e();
        let r = evaluate_network(&eval, &spec, &models::resnet18(), 11);
        assert!(r.speedup > 1.0, "speedup {}", r.speedup);
        assert!(r.energy_ratio < 1.0, "energy ratio {}", r.energy_ratio);
        assert!((0.5..=1.0).contains(&r.utilization));
    }
}
