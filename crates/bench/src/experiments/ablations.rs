//! Ablation studies for the design choices DESIGN.md calls out.

use tpe_arith::encode::EncodingKind;
use tpe_core::analytic::sync_model;
use tpe_cost::components::Component;
use tpe_cost::report::{num, Table};
use tpe_cost::synthesis::PeDesign;
use tpe_sim::{BitsliceArray, BitsliceConfig};
use tpe_workloads::distributions::normal_int8_matrix;

/// Encoder ablation: the same OPT3-style serial array driven by each
/// encoding — isolates the contribution of EN-T over Booth, CSD and
/// radix-2 bit-serial in cycles per GEMM.
pub fn ablate_encoders() -> String {
    let a = normal_int8_matrix(64, 256, 1.0, 555);
    let mut t = Table::new(["encoding", "cycles", "avg PPs/MAC", "util%", "vs EN-T"]);
    let mut ent_cycles = 0u64;
    for kind in [
        EncodingKind::EnT,
        EncodingKind::Csd,
        EncodingKind::Mbe,
        EncodingKind::BitSerialSignMagnitude,
        EncodingKind::BitSerialComplement,
    ] {
        let cfg = BitsliceConfig {
            mp: 32,
            np: 32,
            lanes_per_pe: 1,
            kt: 64,
            encoding: kind,
        };
        let stats = BitsliceArray::new(cfg).cycle_stats(&a, 32);
        if kind == EncodingKind::EnT {
            ent_cycles = stats.cycles;
        }
        t.row([
            kind.to_string(),
            stats.cycles.to_string(),
            num(stats.avg_pps_per_mac(), 2),
            num(stats.utilization() * 100.0, 1),
            format!("×{:.2}", stats.cycles as f64 / ent_cycles as f64),
        ]);
    }
    format!(
        "Ablation — encoder choice on the serial array (64×256 N(0,1) GEMM)\n{}\n\
         EN-T's consecutive-ones skipping buys ~1.7× over complement bit-serial;\n\
         CSD is the minimal-weight bound, within a few % of EN-T at higher encoder cost.\n",
        t.render()
    )
}

/// Sync-granularity ablation: KT sweep against the Eq. 7/8 analytic model.
pub fn ablate_sync() -> String {
    let a = normal_int8_matrix(32, 576, 1.0, 777);
    let mut t = Table::new(["KT (operands/sync)", "cycles", "util%", "syncs"]);
    for kt in [8usize, 16, 32, 64, 144, 576] {
        let cfg = BitsliceConfig {
            mp: 32,
            np: 32,
            lanes_per_pe: 1,
            kt,
            encoding: EncodingKind::EnT,
        };
        let stats = BitsliceArray::new(cfg).cycle_stats(&a, 32);
        t.row([
            kt.to_string(),
            stats.cycles.to_string(),
            num(stats.utilization() * 100.0, 1),
            stats.sync_events.to_string(),
        ]);
    }
    let e = sync_model::expected_tsync(576, 0.445, 32);
    format!(
        "Ablation — synchronization granularity (K=576, 32 columns)\n{}\n\
         coarser sync → drift averages out → higher utilization;\n\
         Eq. 8 at digit sparsity 0.445: E[Tsync] = {:.0} slots per full reduction\n",
        t.render(),
        e
    )
}

/// Group-size ablation: lanes sharing one compressor tree and DFF bank
/// (OPT4E's 4-lane grouping) — area per lane versus group size.
pub fn ablate_group() -> String {
    let mut t = Table::new(["group lanes", "tree", "area(um2)", "area/lane", "delay(ns)"]);
    for lanes in [1u32, 2, 4, 8] {
        let tree_inputs = lanes + 2; // n lanes + the carry-save feedback pair
        let d = PeDesign::builder(format!("group{lanes}"))
            .comp(Component::Cppg { width: 8 }, lanes)
            .comp(Component::Mux { ways: 5, width: 8 }, lanes)
            .comp(
                Component::CompressorTree {
                    inputs: tree_inputs,
                    width: 20,
                },
                1,
            )
            .state(40 + 2 * lanes + 8)
            .nominal_delay(0.29 + 0.055 * f64::from(lanes.ilog2()))
            .build();
        let r = d.synthesize(2.0).expect("group timing");
        t.row([
            lanes.to_string(),
            format!("{}-2", tree_inputs),
            num(r.area_um2, 1),
            num(r.area_um2 / f64::from(lanes), 1),
            num(d.nominal_delay_ns, 2),
        ]);
    }
    format!(
        "Ablation — PE-group size (lanes sharing one compressor tree + DFFs)\n{}\n\
         4 lanes (OPT4E) roughly balances DFF amortization against tree depth growth\n\
         (paper: 0.29 ns → 0.40 ns from OPT4C to the 4-lane group, DFF area ÷4)\n",
        t.render()
    )
}

/// Operand-selection ablation (§VI): encoding the sparser operand —
/// post-ReLU activations with a fraction of exact zeros — cuts serial
/// cycles proportionally, on top of digit sparsity.
pub fn ablate_operand_selection() -> String {
    use tpe_core::arch::workload::cycles_per_mac_with_zeros;
    let cfg = tpe_sim::BitsliceConfig::opt4e();
    let dense = cycles_per_mac_with_zeros(&cfg, 0.0, 42);
    let mut t = Table::new(["zero fraction", "cycles/MAC", "speedup vs dense operand"]);
    for z in [0.0, 0.2, 0.4, 0.5, 0.6, 0.8] {
        let c = cycles_per_mac_with_zeros(&cfg, z, 42);
        t.row([
            format!("{z:.1}"),
            format!("{c:.2}"),
            format!("×{:.2}", dense / c),
        ]);
    }
    format!(
        "Ablation — operand selection (§VI): encode the ReLU-sparse operand\n{}\n\
         zero operands are skipped entirely by the OPT4 prefetcher, so cycles\n\
         scale with (1 − zero fraction) × avg NumPPs\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn encoder_ablation_orders_encodings() {
        let s = super::ablate_encoders();
        assert!(s.contains("EN-T") && s.contains("bit-serial(C)"));
    }

    #[test]
    fn operand_selection_scales_with_zeros() {
        let s = super::ablate_operand_selection();
        assert!(s.contains("0.5"));
        // 50% zeros ≈ ×2 speedup.
        assert!(
            s.contains("×1.9") || s.contains("×2.0") || s.contains("×2.1"),
            "{s}"
        );
    }

    #[test]
    fn group_ablation_shows_amortization() {
        let s = super::ablate_group();
        assert!(s.contains("area/lane"));
    }
}
