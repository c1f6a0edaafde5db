//! The named engine registry: Table VII's roster and its rows, the sweep
//! corners, and label-based lookup for `repro serve` / `repro query`.
//!
//! Engine labels ("OPT4E\[EN-T\]/28nm\@2.00GHz") are the workspace's
//! stable identity strings — seeds, CSV rows, `--filter`/`--arch`
//! matching and serve queries all key on them. [`find`] resolves a label
//! back to its [`EngineSpec`]: roster entries by name or full label, and
//! arbitrary sweep points by parsing the label grammar, so a serve client
//! can ask about any engine a sweep can enumerate.

use tpe_arith::encode::EncodingKind;
use tpe_arith::Precision;
use tpe_core::arch::array::EFFECTIVE_NUMPPS_NORMAL;
use tpe_core::arch::{ArchKind, PeStyle};
use tpe_sim::array::ClassicArch;

use crate::spec::{classic_name, Corner, EngineSpec, MemorySpec};

/// The `repro models` roster: the four classic dense baselines at
/// their Table VII clocks, their OPT1/OPT2 retrofits, and the three
/// serial styles under EN-T — every Table VII configuration, so each
/// model is scored across all four dense array geometries *and* all
/// serial PE styles.
pub fn paper_roster() -> Vec<EngineSpec> {
    use ClassicArch::*;
    vec![
        EngineSpec::dense(PeStyle::TraditionalMac, Tpu, 1.0),
        EngineSpec::dense(PeStyle::TraditionalMac, Ascend, 1.0),
        EngineSpec::dense(PeStyle::TraditionalMac, Trapezoid, 1.0),
        EngineSpec::dense(PeStyle::TraditionalMac, FlexFlow, 1.0),
        EngineSpec::dense(PeStyle::Opt1, Tpu, 1.5),
        EngineSpec::dense(PeStyle::Opt1, Ascend, 1.5),
        EngineSpec::dense(PeStyle::Opt1, Trapezoid, 1.5),
        EngineSpec::dense(PeStyle::Opt1, FlexFlow, 1.5),
        EngineSpec::dense(PeStyle::Opt2, FlexFlow, 1.5),
        EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0),
        EngineSpec::serial(PeStyle::Opt4C, EncodingKind::EnT, 2.5),
        EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0),
    ]
}

/// The default design-space corner axis (`repro dse`): the paper's SMIC
/// 28 nm node at its three studied clocks plus the 16 nm scaling point.
pub fn sweep_corners() -> Vec<Corner> {
    vec![
        Corner::smic28(1.0),
        Corner::smic28(1.5),
        Corner::smic28(2.0),
        Corner::n16(1.5),
    ]
}

/// The named memory-hierarchy corners: the `@<name>` label suffixes,
/// `memory=<name>` filter values and serve `memory` field values. The
/// unbounded default leads so index 0 is the identity projection.
pub fn memory_corners() -> Vec<MemorySpec> {
    vec![
        MemorySpec::unbounded(),
        MemorySpec::edge(),
        MemorySpec::mobile(),
        MemorySpec::hbm(),
    ]
}

/// Resolves a memory-corner name (case-insensitive) to its spec.
pub fn find_memory(name: &str) -> Option<MemorySpec> {
    memory_corners()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
}

/// Full labels of every roster engine, in roster order.
pub fn names() -> Vec<String> {
    paper_roster().iter().map(EngineSpec::label).collect()
}

/// One assembled Table VII row: what `repro table7` prints and the paper
/// claims check.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7Row {
    /// Design label ([`table7_name`]).
    pub name: String,
    /// Clock in MHz.
    pub freq_mhz: f64,
    /// Total array area (µm²).
    pub area_um2: f64,
    /// Total power (W) under dense normally-distributed GEMM.
    pub power_w: f64,
    /// Peak performance (TOPS, 2 ops per MAC).
    pub peak_tops: f64,
}

impl Table7Row {
    /// Energy efficiency in TOPS/W.
    pub fn energy_efficiency(&self) -> f64 {
        self.peak_tops / self.power_w
    }

    /// Area efficiency in TOPS/mm².
    pub fn area_efficiency(&self) -> f64 {
        self.peak_tops / (self.area_um2 / 1e6)
    }
}

/// Display name Table VII (and the paper anchors) use for a roster engine:
/// bare topology names for the MAC baselines, bare style names for the
/// serial designs.
pub fn table7_name(spec: &EngineSpec) -> String {
    match (spec.style, spec.kind) {
        (PeStyle::TraditionalMac, ArchKind::Dense(arch)) => classic_name(arch).to_string(),
        (_, ArchKind::Dense(_)) => spec.arch_label(),
        (_, ArchKind::Serial) => spec.style.name().to_string(),
    }
}

/// One Table VII row from the canonical engine price. Peak TOPS follows
/// the table's convention — the paper's *measured* EN-T effective NumPPs
/// ([`EFFECTIVE_NUMPPS_NORMAL`], Table III) — rather than the analytic
/// quantized-normal expectation the sweeps use, so the printed numbers
/// stay comparable to the paper's column.
///
/// # Panics
///
/// Panics if the engine cannot close timing at its clock.
pub fn table7_row(spec: &EngineSpec) -> Table7Row {
    let price = spec
        .price()
        .unwrap_or_else(|| panic!("{} cannot close timing", spec.label()));
    let raw_tops = price.lanes_total * 2.0 * spec.freq_ghz * 1e9 / 1e12;
    let peak_tops = if spec.style.is_serial() {
        raw_tops / EFFECTIVE_NUMPPS_NORMAL
    } else {
        raw_tops
    };
    Table7Row {
        name: table7_name(spec),
        freq_mhz: spec.freq_ghz * 1e3,
        area_um2: price.area_um2,
        power_w: price.table7_power_w(spec.freq_ghz),
        peak_tops,
    }
}

/// Resolves an engine name to its spec.
///
/// Accepted forms, case-insensitive:
///
/// * a roster arch label ("OPT4E\[EN-T\]") — resolved at its paper clock;
/// * a full label ("OPT1(TPU)/16nm\@1.50GHz") — any arch the label
///   grammar can express, at any sweep-expressible corner;
/// * any of the above with a trailing precision suffix
///   ("OPT3\[EN-T\]/28nm\@2.00GHz\@W4", "OPT4E\[EN-T\]\@W16") — the
///   `@W…` grammar [`EngineSpec::label`] emits for non-default
///   precisions, resolved via [`Precision::parse`];
/// * any of the above with a trailing memory-corner suffix
///   ("OPT4E\[EN-T\]/28nm\@2.00GHz\@edge",
///   "OPT3\[EN-T\]\@W4\@mobile") — the `@<name>` grammar
///   [`EngineSpec::label`] emits for finite [`MemorySpec`] corners,
///   resolved via [`find_memory`].
pub fn find(name: &str) -> Option<EngineSpec> {
    let roster = paper_roster();
    if let Some(hit) = roster.iter().find(|e| e.label().eq_ignore_ascii_case(name)) {
        return Some(hit.clone());
    }
    if let Some(hit) = roster
        .iter()
        .find(|e| e.arch_label().eq_ignore_ascii_case(name))
    {
        return Some(hit.clone());
    }
    // Precision / memory suffixes: peel them off the right and resolve
    // the rest (corner names and precision labels are disjoint, so each
    // tail parses by exactly one of the two). The corner's own "@2.00GHz"
    // tail never parses as either, so plain labels fall through untouched.
    if let Some((head, tail)) = name.rsplit_once('@') {
        if let Some(precision) = Precision::parse(tail) {
            return find(head).map(|spec| spec.with_precision(precision));
        }
        if let Some(memory) = find_memory(tail) {
            return find(head).map(|spec| spec.with_memory(memory));
        }
    }
    let (arch_part, corner_part) = name.split_once('/')?;
    let spec = parse_arch_label(arch_part)?;
    let corner = parse_corner(corner_part)?;
    Some(spec.at_corner(corner))
}

/// Parses "STYLE\[ENCODING\]" (serial) or "STYLE(TOPOLOGY)" (dense) at a
/// placeholder clock (callers attach the corner).
fn parse_arch_label(arch: &str) -> Option<EngineSpec> {
    let style_of = |s: &str| {
        PeStyle::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
    };
    // Serial first: encodings like "bit-serial(C)" contain parentheses.
    if let Some((style_str, rest)) = arch.split_once('[') {
        let enc_str = rest.strip_suffix(']')?;
        let style = style_of(style_str)?;
        let encoding = EncodingKind::ALL
            .into_iter()
            .find(|e| e.to_string().eq_ignore_ascii_case(enc_str))?;
        return style
            .is_serial()
            .then(|| EngineSpec::serial(style, encoding, 1.0));
    }
    let (style_str, rest) = arch.split_once('(')?;
    let topo_str = rest.strip_suffix(')')?;
    let style = style_of(style_str)?;
    let topo = ClassicArch::ALL
        .into_iter()
        .find(|a| classic_name(*a).eq_ignore_ascii_case(topo_str))?;
    (!style.is_serial()).then(|| EngineSpec::dense(style, topo, 1.0))
}

/// Parses "28nm\@2.00GHz" into a [`Corner`].
fn parse_corner(corner: &str) -> Option<Corner> {
    let (node_str, freq_str) = corner.split_once('@')?;
    let ghz: f64 = freq_str
        .strip_suffix("GHz")
        .or_else(|| freq_str.strip_suffix("ghz"))?
        .parse()
        .ok()?;
    if !(ghz.is_finite() && ghz > 0.0) {
        return None;
    }
    match node_str.to_ascii_lowercase().as_str() {
        "28nm" => Some(Corner::smic28(ghz)),
        "16nm" => Some(Corner::n16(ghz)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_roster_label_round_trips_through_find() {
        for engine in paper_roster() {
            let by_label = find(&engine.label()).unwrap();
            assert_eq!(by_label, engine, "{}", engine.label());
            let by_arch = find(&engine.arch_label()).unwrap();
            assert_eq!(by_arch.label(), engine.label(), "paper clock expected");
        }
        assert_eq!(names().len(), 12);
    }

    #[test]
    fn find_parses_off_roster_sweep_points() {
        let e = find("OPT3[CSD]/28nm@2.00GHz").unwrap();
        assert_eq!(e.label(), "OPT3[CSD]/28nm@2.00GHz");
        let e = find("opt1(tpu)/16nm@1.50ghz").unwrap();
        assert_eq!(e.label(), "OPT1(TPU)/16nm@1.50GHz");
        let e = find("OPT4E[bit-serial(C)]/28nm@2.00GHz").unwrap();
        assert_eq!(e.encoding, EncodingKind::BitSerialComplement);
        // The MAC baseline label grammar.
        let e = find("MAC(FlexFlow)/28nm@1.00GHz").unwrap();
        assert_eq!(e.style, PeStyle::TraditionalMac);
    }

    /// The label round-trip property over the whole expressible space:
    /// every roster engine at every sweep corner and every precision
    /// preset resolves back to itself through `find(label(spec))` — what
    /// makes any sweep point, at any precision, servable by name.
    #[test]
    fn every_roster_corner_precision_label_round_trips() {
        for engine in paper_roster() {
            for corner in sweep_corners() {
                for precision in Precision::PRESETS {
                    let spec = engine.clone().at_corner(corner).with_precision(precision);
                    let found = find(&spec.label())
                        .unwrap_or_else(|| panic!("{} must resolve", spec.label()));
                    assert_eq!(found, spec, "{}", spec.label());
                    // W8 labels are suffix-free; everything else carries
                    // the parsable suffix.
                    assert_eq!(
                        spec.label().contains("@W"),
                        !precision.is_default(),
                        "{}",
                        spec.label()
                    );
                }
            }
        }
    }

    /// Arch-label + precision shorthand resolves at the paper clock.
    #[test]
    fn find_parses_precision_suffixes() {
        let e = find("OPT4E[EN-T]@W4").unwrap();
        assert_eq!(e.precision, Precision::W4);
        assert_eq!(e.freq_ghz, 2.0, "paper clock expected");
        let e = find("opt3[csd]/28nm@2.00ghz@w16").unwrap();
        assert_eq!(e.precision, Precision::W16);
        assert_eq!(e.label(), "OPT3[CSD]/28nm@2.00GHz@W16");
        let e = find("OPT4C[EN-T]/16nm@1.50GHz@W8xW4").unwrap();
        assert_eq!(e.precision, Precision::W8X4);
        // An explicit W8 suffix resolves to the suffix-free default.
        let e = find("OPT4E[EN-T]/28nm@2.00GHz@W8").unwrap();
        assert_eq!(e.label(), "OPT4E[EN-T]/28nm@2.00GHz");
    }

    #[test]
    fn find_rejects_nonsense() {
        for bad in [
            "",
            "OPT9[EN-T]/28nm@2.00GHz",
            "OPT3[NOPE]/28nm@2.00GHz",
            "OPT3(TPU)/28nm@2.00GHz", // serial style on a dense topology
            "MAC[EN-T]/28nm@2.00GHz", // dense style with an encoding
            "OPT1(TPU)/7nm@1.00GHz",  // unknown node
            "OPT1(TPU)/28nm@fastGHz", // unparsable clock
            "OPT3[CSD]",              // off-roster arch without a corner
            "OPT3[EN-T]/28nm@2.00GHz@W99", // invalid precision suffix
            "@W4",                    // precision without an engine
            "OPT4E[EN-T]/28nm@2.00GHz@hbm3", // unknown memory corner
            "@edge",                  // memory corner without an engine
        ] {
            assert!(find(bad).is_none(), "{bad:?} must not resolve");
        }
    }

    /// The label round-trip property extended along the memory axis:
    /// every roster engine × memory corner × precision resolves back to
    /// itself, and only finite corners leave a suffix.
    #[test]
    fn every_memory_corner_label_round_trips() {
        for engine in paper_roster() {
            for memory in memory_corners() {
                for precision in [Precision::W8, Precision::W4] {
                    let spec = engine.clone().with_precision(precision).with_memory(memory);
                    let found = find(&spec.label())
                        .unwrap_or_else(|| panic!("{} must resolve", spec.label()));
                    assert_eq!(found, spec, "{}", spec.label());
                    assert_eq!(
                        spec.label().ends_with(memory.name),
                        !memory.is_unbounded(),
                        "{}",
                        spec.label()
                    );
                }
            }
        }
        // Corner names never collide with precision labels: both parsers
        // stay disjoint over the whole registry.
        for m in memory_corners() {
            assert!(Precision::parse(m.name).is_none(), "{}", m.name);
        }
        // An explicit @unbounded suffix resolves to the suffix-free default.
        let e = find("OPT4E[EN-T]/28nm@2.00GHz@unbounded").unwrap();
        assert_eq!(e.label(), "OPT4E[EN-T]/28nm@2.00GHz");
    }

    #[test]
    fn sweep_corners_cover_the_paper_axis() {
        let corners = sweep_corners();
        assert_eq!(corners.len(), 4);
        let labels: Vec<String> = corners.iter().map(Corner::label).collect();
        assert_eq!(
            labels,
            [
                "28nm@1.00GHz",
                "28nm@1.50GHz",
                "28nm@2.00GHz",
                "16nm@1.50GHz"
            ]
        );
    }

    /// The roster's eight "ours" configurations sit at the paper's clocks
    /// and lane counts.
    #[test]
    fn table7_configs_match_paper() {
        let lanes = |e: &EngineSpec| e.pe_instances() * e.style.lanes() as usize;
        let ours: Vec<EngineSpec> = paper_roster()
            .into_iter()
            .filter(|e| e.style != PeStyle::TraditionalMac)
            .collect();
        assert_eq!(ours.len(), 8);
        let opt4e = ours.iter().find(|e| table7_name(e) == "OPT4E").unwrap();
        assert_eq!(lanes(opt4e), 4096, "32×32 groups × 4 lanes");
        assert_eq!(opt4e.freq_ghz, 2.0);
        let opt1 = &ours[0];
        assert_eq!(opt1.freq_ghz, 1.5);
        assert_eq!(lanes(opt1), 1024);
    }

    fn row(name: &str) -> Table7Row {
        paper_roster()
            .iter()
            .map(table7_row)
            .find(|r| r.name == name)
            .unwrap()
    }

    /// The assembled TPU row lands near the paper's area and power.
    #[test]
    fn tpu_row_matches_paper_scale() {
        let r = row("TPU");
        let paper = &tpe_cost::anchors::TABLE7_OTHERS[0];
        assert!(
            (r.area_um2 - paper.area_um2).abs() / paper.area_um2 < 0.12,
            "area {} vs paper {}",
            r.area_um2,
            paper.area_um2
        );
        assert!(
            (r.power_w - paper.power_w).abs() / paper.power_w < 0.30,
            "power {} vs paper {}",
            r.power_w,
            paper.power_w
        );
        assert!((r.peak_tops - 2.05).abs() < 0.01);
    }

    /// Peak TOPS reproduce Table VII exactly (they are frequency × lanes
    /// arithmetic).
    #[test]
    fn peak_tops_match_table7() {
        assert!((row("OPT1(TPU)").peak_tops - 3.07).abs() < 0.01);
        assert!((row("OPT3").peak_tops - 1.80).abs() < 0.02);
        assert!((row("OPT4C").peak_tops - 2.25).abs() < 0.03);
        assert!((row("OPT4E").peak_tops - 7.22).abs() < 0.08);
    }

    /// The paper's headline ratios, reproduced in shape: OPT1 improves
    /// area efficiency over every dense baseline it retrofits.
    #[test]
    fn opt1_improves_area_efficiency() {
        for (base, opt) in [
            ("TPU", "OPT1(TPU)"),
            ("Ascend", "OPT1(Ascend)"),
            ("Trapezoid", "OPT1(Trapezoid)"),
            ("FlexFlow", "OPT1(FlexFlow)"),
        ] {
            let b = row(base);
            let o = row(opt);
            let ratio = o.area_efficiency() / b.area_efficiency();
            assert!(
                ratio > 1.1,
                "{opt} AE ratio {ratio:.2} should exceed 1.1 (paper: 1.27–1.56)"
            );
        }
    }

    /// OPT4E delivers the highest area efficiency of the serial designs —
    /// the computational-density claim of §V-C.
    #[test]
    fn opt4e_is_densest_serial_design() {
        let o3 = row("OPT3");
        let o4c = row("OPT4C");
        let o4e = row("OPT4E");
        assert!(o4c.area_efficiency() > o3.area_efficiency());
        assert!(o4e.area_efficiency() > o3.area_efficiency());
        assert!(o4e.peak_tops > 3.0 * o3.peak_tops);
    }
}
