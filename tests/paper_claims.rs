//! The paper's headline claims, each as an executable assertion.
//!
//! Each test checks the numbers a `repro` command prints (Table VII rows
//! from the `tpe-engine` roster, the Figure 13 comparison from
//! `tpe_engine::compare`), so when one of them moves, the reproduction
//! has drifted from the paper.

use tpe::arith::encode::{Encoder, EncodingKind, EntEncoder};
use tpe::core::analytic::{numpps, sync_model};
use tpe::core::arch::PeStyle;
use tpe::cost::anchors;
use tpe::engine::roster::{self, table7_row, Table7Row};
use tpe::engine::{EngineCache, Evaluator};

/// The Table VII rows `repro table7` prints.
fn table7_rows() -> Vec<Table7Row> {
    roster::paper_roster().iter().map(table7_row).collect()
}

/// §Abstract: "we achieved area efficiency improvements of 1.27×, 1.28×,
/// 1.56×, and 1.44×" for the four classic architectures. Our model
/// reproduces improvements in the 1.2–1.6 band for all four.
#[test]
fn abstract_area_efficiency_improvements() {
    let rows = table7_rows();
    let ae = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap()
            .area_efficiency()
    };
    for (base, opt) in [
        ("TPU", "OPT1(TPU)"),
        ("Ascend", "OPT1(Ascend)"),
        ("Trapezoid", "OPT1(Trapezoid)"),
        ("FlexFlow", "OPT2(FlexFlow)"),
    ] {
        let ratio = ae(opt) / ae(base);
        assert!(
            (1.15..1.70).contains(&ratio),
            "{opt}/{base} area-efficiency ratio {ratio:.2} outside the paper band"
        );
    }
}

/// §Abstract: "12.10× improvement in energy efficiency and 2.85× in area
/// efficiency compared to Laconic". Direction and scale must hold.
#[test]
fn abstract_opt4e_vs_laconic() {
    let row = table7_rows()
        .into_iter()
        .find(|r| r.name == "OPT4E")
        .unwrap();
    let rel =
        tpe::core::baselines::vs_laconic("OPT4E", row.energy_efficiency(), row.area_efficiency());
    assert!(
        rel.ee_vs_laconic > 8.0,
        "EE ×{:.1} (paper ×12.10)",
        rel.ee_vs_laconic
    );
    assert!(
        rel.ae_vs_laconic > 2.0,
        "AE ×{:.1} (paper ×2.85)",
        rel.ae_vs_laconic
    );
}

/// §IV-A: OPT1 halves the MAC's critical path (1.95 → 0.92 ns) because
/// compressor delay is width-independent (Table V).
#[test]
fn opt1_halves_the_critical_path() {
    let (opt1, mac) = (anchors::OPT1_TPD_NS, anchors::MAC_TPD_NS);
    assert!(opt1 < mac / 2.0 + 0.01, "{opt1} vs {mac}");
    // And the model's compressor tree really is flat across widths.
    use tpe::cost::components::Component;
    let d14 = Component::CompressorTree {
        inputs: 4,
        width: 14,
    }
    .cost()
    .delay_ns;
    let d32 = Component::CompressorTree {
        inputs: 4,
        width: 32,
    }
    .cost()
    .delay_ns;
    assert_eq!(d14, d32);
}

/// §II-C / Table II: EN-T leaves 71.9% of INT8 values at ≤3 partial
/// products (MBE 68.4%, bit-serial 36.3%), histograms exact.
#[test]
fn table2_exact_histograms() {
    assert_eq!(
        &numpps::int8_histogram(EncodingKind::EnT)[..5],
        &[1, 15, 60, 108, 72]
    );
    assert_eq!(
        &numpps::int8_histogram(EncodingKind::Mbe)[..5],
        &[1, 12, 54, 108, 81]
    );
    assert!((numpps::fraction_at_most(EncodingKind::EnT, 3) - 0.719).abs() < 0.001);
    assert!((numpps::fraction_at_most(EncodingKind::Mbe, 3) - 0.684).abs() < 0.001);
    assert!((numpps::fraction_at_most(EncodingKind::BitSerialComplement, 3) - 0.363).abs() < 0.001);
}

/// Figure 3: the worked examples, digit for digit.
#[test]
fn figure3_worked_examples() {
    let digits = |v: i64| -> Vec<i8> {
        EntEncoder
            .encode(v, 8)
            .iter()
            .rev()
            .map(|d| d.coeff)
            .collect()
    };
    assert_eq!(digits(91), vec![1, 2, -1, -1]);
    assert_eq!(digits(124), vec![2, 0, -1, 0]);
}

/// §IV-C: the ResNet-18 synchronization example — K=576, s=0.38,
/// E[Tsync]=381, a 33.84% saving.
#[test]
fn resnet18_sync_example() {
    let e = sync_model::expected_tsync(576, 0.38, 32);
    assert!((e - 381.0).abs() < 3.0, "E[Tsync] = {e}");
    let saving = sync_model::saving_vs_dense(576, 0.38, 32);
    assert!((saving - 0.3384).abs() < 0.006, "saving = {saving}");
}

/// Table III: average NumPPs ordering EN-T < MBE < bit-serial(M) <
/// bit-serial(C), with EN-T in the 2.2 band, σ-invariant.
#[test]
fn table3_band_and_ordering() {
    let t = numpps::table3(512, 99);
    let row = |k: EncodingKind| t.iter().find(|(kk, _)| *kk == k).unwrap().1;
    let ent = row(EncodingKind::EnT);
    assert!(
        ent.iter().all(|v| (2.1..2.4).contains(v)),
        "EN-T row {ent:?}"
    );
    let mbe = row(EncodingKind::Mbe);
    let bsm = row(EncodingKind::BitSerialSignMagnitude);
    let bsc = row(EncodingKind::BitSerialComplement);
    for (((e, m), s), c) in ent.iter().zip(&mbe).zip(&bsm).zip(&bsc) {
        assert!(e < m && m < s && s < c, "ordering broken: {e} {m} {s} {c}");
    }
}

/// §V-B: the MAC's area-efficiency stops improving past 1 GHz, while the
/// OPT designs keep gaining to 1.5–2.5 GHz (Figure 9(C)).
#[test]
fn figure9_efficiency_knees() {
    let ae = |style: PeStyle, f: f64| -> Option<f64> {
        style.design().synthesize(f).map(|r| {
            let ops = if style.is_serial() { 2.0 / 2.27 } else { 2.0 } * f64::from(style.lanes());
            r.area_efficiency(ops)
        })
    };
    // MAC: 1.5 GHz is *worse* than 1.0 GHz.
    assert!(ae(PeStyle::TraditionalMac, 1.5).unwrap() < ae(PeStyle::TraditionalMac, 1.0).unwrap());
    // OPT1: 1.5 GHz beats 1.0 GHz.
    assert!(ae(PeStyle::Opt1, 1.5).unwrap() > ae(PeStyle::Opt1, 1.0).unwrap());
    // OPT4C keeps improving to 2.5 GHz.
    assert!(ae(PeStyle::Opt4C, 2.5).unwrap() > ae(PeStyle::Opt4C, 1.5).unwrap());
}

/// §V-D / Figure 13: GPT-2 speedup over the equal-area MAC TPE is ≈2×
/// (paper ×2.16), and energy is saved.
#[test]
fn gpt2_speedup_claim() {
    use tpe::engine::compare::evaluate_network;
    let opt4e = roster::find("OPT4E[EN-T]").unwrap();
    let eval = Evaluator::new(EngineCache::global());
    let r = evaluate_network(&eval, &opt4e, &tpe::workloads::models::gpt2(), 3);
    assert!(
        (1.7..2.6).contains(&r.speedup),
        "GPT-2 speedup ×{:.2}",
        r.speedup
    );
    assert!(r.energy_ratio < 0.9, "energy ratio {:.2}", r.energy_ratio);
    assert!(r.utilization > 0.94, "utilization {:.3}", r.utilization);
}
