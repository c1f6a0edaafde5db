//! The paper's processing-element architectures and the array-level cost
//! terms around them: the machinery behind Figure 9 and Table VII.

pub mod array;
pub mod designs;
pub mod simd_core;
pub mod workload;

pub use designs::PeStyle;

use tpe_sim::array::ClassicArch;
use tpe_sim::BitsliceConfig;

/// What kind of array an architecture drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// A dense classic topology (optionally retrofitted with OPT1/OPT2).
    Dense(ClassicArch),
    /// A column-synchronous bit-slice array (OPT3/OPT4C/OPT4E).
    Serial,
}

/// The bit-slice array configuration a serial PE style drives (its paper
/// geometry, EN-T digits).
///
/// # Panics
///
/// Panics if `style` is not a serial style.
pub fn bitslice_config(style: PeStyle) -> BitsliceConfig {
    match style {
        PeStyle::Opt3 => BitsliceConfig::opt3(),
        PeStyle::Opt4C => BitsliceConfig::opt4c(),
        PeStyle::Opt4E => BitsliceConfig::opt4e(),
        _ => panic!("{} is not a serial architecture", style.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "not a serial architecture")]
    fn dense_arch_has_no_bitslice_config() {
        bitslice_config(PeStyle::TraditionalMac);
    }
}
