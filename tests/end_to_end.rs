//! Cross-crate integration: the same GEMM flows through every layer of the
//! stack — reference, notation interpreter, dense array simulators, serial
//! engine — and everything agrees bit for bit, while the cost model prices
//! each architecture consistently.

use tpe::arith::encode::EncodingKind;
use tpe::core::arch::PeStyle;
use tpe::core::notation::interp::execute;
use tpe::core::notation::nests;
use tpe::sim::array::ClassicArch;
use tpe::sim::{BitsliceArray, BitsliceConfig};
use tpe::workloads::distributions::{normal_int8_matrix, uniform_int8_matrix};
use tpe::workloads::matrix::matmul_i8;

#[test]
fn one_gemm_through_the_whole_stack() {
    let (m, n, k) = (8, 8, 16);
    let a = uniform_int8_matrix(m, k, 2024);
    let b = uniform_int8_matrix(k, n, 2025);
    let reference = matmul_i8(&a, &b);

    // Notation interpreter, all five nests.
    for nest in [
        nests::traditional_mac(m, n, k, EncodingKind::EnT),
        nests::opt1(m, n, k, EncodingKind::EnT),
        nests::opt2(m, n, k, EncodingKind::EnT),
        nests::opt3(m, n, k, EncodingKind::EnT),
        nests::opt4(m, n, k, EncodingKind::EnT),
    ] {
        let (c, _) = execute(&nest, &a, &b).expect("nest executes");
        assert_eq!(c, reference, "{}", nest.name);
    }

    // Dense array simulators.
    for arch in ClassicArch::ALL {
        let engine = arch.at_paper_config();
        assert_eq!(engine.simulate(&a, &b).0, reference, "{}", engine.name());
    }

    // Serial engine with both proposed configurations.
    for cfg in [BitsliceConfig::opt3(), BitsliceConfig::opt4e()] {
        assert_eq!(BitsliceArray::new(cfg).simulate(&a, &b).0, reference);
    }
}

#[test]
fn every_table7_architecture_synthesizes_and_prices() {
    for spec in tpe::engine::roster::paper_roster() {
        let row = tpe::engine::roster::table7_row(&spec);
        assert!(
            row.area_um2 > 1e5 && row.area_um2 < 1e6,
            "{}: {}",
            row.name,
            row.area_um2
        );
        assert!(
            row.power_w > 0.05 && row.power_w < 2.0,
            "{}: {}",
            row.name,
            row.power_w
        );
        assert!(row.peak_tops > 0.5 && row.peak_tops < 10.0);
        assert!(row.energy_efficiency() > 1.0);
        assert!(row.area_efficiency() > 2.0);
    }
}

#[test]
fn serial_engine_tracks_encoding_statistics() {
    // The serial array's measured PPs/MAC must match the workload's
    // measured digit statistics — two independent code paths.
    let a = normal_int8_matrix(32, 256, 1.0, 77);
    let engine = BitsliceArray::new(BitsliceConfig::opt3());
    let stats = engine.cycle_stats(&a, 32);
    let expected = tpe::workloads::sparsity::avg_num_pps(&a, EncodingKind::EnT);
    assert!(
        (stats.avg_pps_per_mac() - expected).abs() < 1e-9,
        "engine {} vs measurement {}",
        stats.avg_pps_per_mac(),
        expected
    );
}

#[test]
fn pe_styles_cover_paper_frequency_points() {
    // Every design closes timing at its Figure 9 optimum and the dense MAC
    // fails beyond its wall.
    for style in PeStyle::ALL {
        assert!(
            style
                .design()
                .synthesize(style.optimal_freq_ghz())
                .is_some(),
            "{} at {} GHz",
            style.name(),
            style.optimal_freq_ghz()
        );
    }
    assert!(PeStyle::TraditionalMac.design().synthesize(2.0).is_none());
    assert!(PeStyle::Opt4C.design().synthesize(3.0).is_some());
}

#[test]
fn analytic_model_agrees_with_simulated_sync() {
    // Eq. 7/8 versus the cycle simulator: relative sync overhead at K=576
    // must match within a couple of points of utilization.
    use tpe::core::analytic::sync_model;
    let a = normal_int8_matrix(32, 576, 1.0, 5);
    let cfg = BitsliceConfig {
        kt: usize::MAX,
        ..BitsliceConfig::opt3()
    };
    let stats = BitsliceArray::new(cfg).cycle_stats(&a, 32);
    let sim_util = stats.utilization();

    // Analytic equivalent: per-column slots = 4 digit positions × 576
    // operands; digit sparsity measured from the same matrix.
    let s = tpe::workloads::sparsity::encoding_sparsity(&a, EncodingKind::EnT);
    let slots = 4 * 576;
    let analytic_util =
        sync_model::expected_single(slots, s) / sync_model::expected_tsync(slots, s, 32);
    assert!(
        (sim_util - analytic_util).abs() < 0.03,
        "simulated {sim_util:.3} vs analytic {analytic_util:.3}"
    );
}
