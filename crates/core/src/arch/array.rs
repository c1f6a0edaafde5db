//! Array-level cost terms: the support logic outside the PEs, the
//! interconnect overhead and the peak-throughput divisor that turn a PE
//! design into a Table VII row (assembled by `tpe-engine`'s price).

use super::designs::PeStyle;
use tpe_arith::encode::EncodingKind;
use tpe_arith::Precision;
use tpe_cost::components::Component;

/// Effective average NumPPs of EN-T-encoded normally distributed INT8
/// operands — the divisor in the serial designs' peak-throughput
/// accounting. Table III reports 2.22–2.27; Table VII's peak numbers
/// (e.g. OPT3 = 1.80 TOPS at 2 GHz) correspond to 2.27.
pub const EFFECTIVE_NUMPPS_NORMAL: f64 = 2.27;

/// Fixed interconnect/control overhead on top of PE + SIMD + row logic.
/// Table VII's TPU row (370,631 µm² for 1024 PEs) implies the paper counts
/// essentially PE array + support only.
pub const ARRAY_OVERHEAD_FRAC: f64 = 0.02;

/// Area (µm², SMIC 28 nm) of the support logic outside `pe_instances`
/// PEs of `style`, per the paper's figures:
///
/// * OPT1/OPT2 relocate the full `add`/`shift` into a SIMD vector core
///   of `⌈MP·NP/K⌉` lanes (§IV-A) — 32 lanes for a 32×32 array at
///   K = 32. OPT3 carries the same SIMD core and keeps everything else
///   inside the PEs.
/// * OPT4C/OPT4E share 2 encoders + sparse encoders per PE row and add
///   B-prefetch address logic (§IV-D); the shared recoders are priced for
///   `encoding` (see [`super::designs::encoder_component_for`]).
///
/// The SIMD lanes resolve at the accumulator width and the OPT4 shared
/// encoders cover the multiplicand's digit slots, so support logic scales
/// with `precision` just like the PEs.
pub fn support_area_um2(
    style: PeStyle,
    pe_instances: usize,
    encoding: EncodingKind,
    precision: Precision,
) -> f64 {
    let simd = || {
        let lane = Component::SimdLane {
            width: precision.acc_bits,
        }
        .cost()
        .area_um2;
        pe_instances.div_ceil(32) as f64 * lane
    };
    match style {
        PeStyle::TraditionalMac => 0.0,
        PeStyle::Opt1 | PeStyle::Opt2 | PeStyle::Opt3 => simd(),
        PeStyle::Opt4C | PeStyle::Opt4E => {
            let rows = (pe_instances as f64).sqrt().round() as u32;
            let enc = super::designs::encoder_component_for(encoding, precision.a_bits)
                .cost()
                .area_um2
                + Component::SparseEncoder {
                    digits: precision.digits(),
                }
                .cost()
                .area_um2;
            let prefetch = 40.0; // address generation + B staging per row
            f64::from(rows) * (2.0 * enc + prefetch) + simd()
        }
    }
}
