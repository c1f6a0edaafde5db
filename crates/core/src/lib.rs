#![warn(missing_docs)]

//! # tpe-core
//!
//! The paper's primary contribution, as an executable Rust library:
//!
//! * [`notation`] — the **compute-centric loop-nest notation** that exposes
//!   the bit-weight (BW) dimension inside MACs. Loop nests are built from
//!   the hardware primitives of Tables IV & VI (`encode`, `map`, `shift`,
//!   `half_reduce`, `add`, `accumulate`, `sparse`, `sync`), pretty-print to
//!   the paper's Figure 4–8 pseudocode, and — crucially — **execute**: an
//!   interpreter runs any nest against real INT8 matrices, so every
//!   transformation is verified semantics-preserving, not just asserted.
//! * [`transform`](notation::transform) — the legality-checked rewrites of
//!   §III-B/§IV: reversing `add`/`accumulate` into compressor accumulation
//!   (OPT1), converting BW from spatial to temporal and hoisting `shift`
//!   (OPT2), sparse iteration over encoded digits (OPT3), and extracting
//!   the shared encoder out of the PE array (OPT4).
//! * [`arch`] — the six PE microarchitectures (baseline MAC, OPT1, OPT2,
//!   OPT3, OPT4C, OPT4E) with their `tpe-cost` designs (Figure 9), the
//!   array-level cost terms Table VII's rows are assembled from (support
//!   logic, interconnect overhead, peak-throughput divisor), and the
//!   serial sync-cycle model (sampled oracle and closed form) with the
//!   dense baseline of Figures 11–13. Engines, pricing and the figure
//!   comparisons themselves live in `tpe-engine`.
//! * [`analytic`] — the synchronization-time model of Eqs. 7–8 (binomial
//!   `E[Tsync]`) and the NumPPs enumerations behind Tables II & III.
//! * [`baselines`] — the published bit-slice accelerators the paper
//!   compares against (Laconic, Bitlet, Sibia, Bitwave, HUAA), normalized
//!   to 28 nm exactly as the paper does.
//! * [`memo`] — the sharded concurrent memo table every memoized pure
//!   computation in the workspace shares.

pub mod analytic;
pub mod arch;
pub mod baselines;
pub mod memo;
pub mod notation;

pub use arch::ArchKind;
pub use notation::LoopNest;
