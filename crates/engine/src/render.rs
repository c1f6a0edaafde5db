//! Rendering of replies and result rows: the one JSON string escape, the
//! one reply envelope, and the field tables behind every metrics and
//! model-report row.
//!
//! A result row — [`Metrics`] for one layer or design point,
//! [`ModelReport`] for a whole network — renders through its [`Row`]
//! tables; an engine's [`EnginePrice`] through [`ENGINE_FIELDS`]. Each entry is a field name, a decimal count and a getter, so a
//! field's name and precision are spelled once for the serve wire, the
//! `--json` documents and the CSVs. The type's own fields
//! ([`Row::CORE`]) come first, then the memory-roofline group both types
//! share ([`Row::ROOFLINE`]). [`write_fields`] renders a table in each
//! [`Shape`], appending to one `String` with no allocation per field.

use std::fmt::Write;

use crate::{Bound, EnginePrice, LayerReport, Metrics, ModelReport};

/// JSON string-content escaping: quotes, backslashes and control
/// characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A successful reply line: `{"id":N,"ok":true,BODY}`, where `body` is an
/// op's comma-separated fields.
pub fn ok_line(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,{body}}}")
}

/// A failed reply line: `{"id":N,"ok":false,"error":"…"}`.
pub fn error_line(id: u64, error: &str) -> String {
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}",
        json_escape(error)
    )
}

/// One rendered value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A real, printed with the entry's decimal count.
    Real(f64),
    /// An integer count.
    Count(u64),
    /// A fixed identifier (a JSON string outside CSV; never needs
    /// escaping).
    Label(&'static str),
}

/// One field-table entry: name, decimal count (for [`Cell::Real`]) and
/// getter.
pub struct Field<T> {
    /// The JSON key and CSV column name.
    pub name: &'static str,
    /// Digits after the decimal point.
    pub decimals: usize,
    /// Reads the value off a row.
    pub get: fn(&T) -> Cell,
}

const fn field<T>(name: &'static str, decimals: usize, get: fn(&T) -> Cell) -> Field<T> {
    Field {
        name,
        decimals,
        get,
    }
}

/// The three shapes a field table renders in. Every field is prefixed by
/// its separator, so a table appends to whatever precedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Serve wire JSON: `,"k":v`.
    Wire,
    /// `--json` document JSON: `, "k": v`.
    Doc,
    /// CSV: `,v`, and a blank `,` per field for an infeasible row.
    Csv,
}

/// A result type with field tables.
pub trait Row: Sized + 'static {
    /// The type's own fields, in output order.
    const CORE: &'static [Field<Self>];

    /// The memory-roofline group, rendered after [`Self::CORE`].
    const ROOFLINE: &'static [Field<Self>] = &[
        field("bytes_moved", 0, |r| Cell::Real(r.roofline().0)),
        field("intensity_ops_per_byte", 4, |r| Cell::Real(r.roofline().1)),
        field("bound", 0, |r| Cell::Label(r.roofline().2.label())),
    ];

    /// Bytes moved, arithmetic intensity and binding resource.
    fn roofline(&self) -> (f64, f64, Bound);
}

impl Row for Metrics {
    const CORE: &'static [Field<Self>] = &[
        field("area_um2", 3, |m| Cell::Real(m.area_um2)),
        field("delay_us", 4, |m| Cell::Real(m.delay_us)),
        field("energy_uj", 6, |m| Cell::Real(m.energy_uj)),
        field("fj_per_mac", 4, |m| Cell::Real(m.energy_per_mac_fj)),
        field("gops", 3, |m| Cell::Real(m.throughput_gops)),
        field("peak_tops", 4, |m| Cell::Real(m.peak_tops)),
        field("utilization", 5, |m| Cell::Real(m.utilization)),
        field("power_w", 5, |m| Cell::Real(m.power_w)),
    ];

    fn roofline(&self) -> (f64, f64, Bound) {
        (self.bytes_moved, self.intensity_ops_per_byte, self.bound)
    }
}

impl Row for ModelReport {
    const CORE: &'static [Field<Self>] = &[
        field("layers", 0, |r| Cell::Count(r.layer_count() as u64)),
        field("macs", 0, |r| Cell::Count(r.total_macs)),
        field("cycles", 0, |r| Cell::Real(r.cycles)),
        field("delay_us", 4, |r| Cell::Real(r.delay_us)),
        field("energy_uj", 6, |r| Cell::Real(r.energy_uj)),
        field("gops", 3, |r| Cell::Real(r.throughput_gops())),
        field("peak_tops", 4, |r| Cell::Real(r.peak_tops)),
        field("utilization", 5, |r| Cell::Real(r.utilization)),
        field("power_w", 5, |r| Cell::Real(r.power_w())),
        field("tops_per_w", 4, |r| Cell::Real(r.tops_per_w())),
        field("area_um2", 3, |r| Cell::Real(r.area_um2)),
    ];

    fn roofline(&self) -> (f64, f64, Bound) {
        (self.bytes_moved, self.intensity_ops_per_byte, self.bound)
    }
}

/// The per-layer entries of a model report's `--json` breakdown, after
/// the layer `name` (no intensity column).
pub const LAYER_FIELDS: &[Field<LayerReport>] = &[
    field("macs", 0, |l| Cell::Count(l.macs)),
    field("cycles", 0, |l| Cell::Real(l.cycles)),
    field("delay_us", 4, |l| Cell::Real(l.delay_us)),
    field("utilization", 5, |l| Cell::Real(l.utilization)),
    field("energy_uj", 6, |l| Cell::Real(l.energy_uj)),
    field("bytes_moved", 0, |l| Cell::Real(l.bytes_moved)),
    field("bound", 0, |l| Cell::Label(l.bound.label())),
];

/// The priced-engine entries of the serve `engine` op, after its
/// `feasible` flag.
pub const ENGINE_FIELDS: &[Field<EnginePrice>] = &[
    field("area_um2", 3, |p| Cell::Real(p.area_um2)),
    field("e_active_fj", 4, |p| Cell::Real(p.e_active_fj)),
    field("e_idle_fj", 4, |p| Cell::Real(p.e_idle_fj)),
    field("instances", 0, |p| Cell::Real(p.instances)),
    field("lanes_total", 0, |p| Cell::Real(p.lanes_total)),
    field("peak_tops", 4, |p| Cell::Real(p.peak_tops)),
];

/// Appends `fields` of `row` to `out` in `shape`. An absent (infeasible)
/// row renders nothing in the JSON shapes and one blank cell per field in
/// CSV.
pub fn write_fields<T>(out: &mut String, fields: &[Field<T>], row: Option<&T>, shape: Shape) {
    let Some(row) = row else {
        if shape == Shape::Csv {
            out.extend(fields.iter().map(|_| ','));
        }
        return;
    };
    for f in fields {
        match shape {
            Shape::Wire => write!(out, ",\"{}\":", f.name),
            Shape::Doc => write!(out, ", \"{}\": ", f.name),
            Shape::Csv => write!(out, ","),
        }
        .expect("writing to a String cannot fail");
        match (f.get)(row) {
            Cell::Real(v) => write!(out, "{:.*}", f.decimals, v),
            Cell::Count(n) => write!(out, "{n}"),
            Cell::Label(s) if shape == Shape::Csv => write!(out, "{s}"),
            Cell::Label(s) => write!(out, "\"{s}\""),
        }
        .expect("writing to a String cannot fail");
    }
}
