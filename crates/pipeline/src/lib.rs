#![warn(missing_docs)]

//! # tpe-pipeline
//!
//! Model-level scheduling pipeline: whole-DNN evaluation on bit-weight TPE
//! arrays.
//!
//! The paper's end-to-end results (Figures 11–13) score architectures on
//! *complete networks*, not isolated layers: per-layer utilization dips
//! (depthwise K = 9/25 in Figure 11(B)), tiling residue on skinny GEMV
//! tails, and the delay mix across dozens of layers are what separate the
//! designs in practice. This crate owns the **grid executor** — the
//! deterministic parallel (model × engine) sweep behind `repro models` —
//! while the evaluation stack it drives (engine specs, pricing, layer
//! scheduling, reports) lives in [`tpe_engine`], the canonical
//! implementation shared with `tpe-dse` and `repro serve`:
//!
//! ```text
//! workloads::models ──► img2col-lowered GEMM layers (tpe-workloads)
//!        │
//!        ▼  per (model × engine) cell
//! tpe_engine::Evaluator ── pricing (global cache) + per-layer scheduling
//!        │                 → end-to-end ModelReport
//!        ▼
//! [`grid`] ── deterministic parallel executor; results are
//!              byte-identical across runs and thread counts.
//! ```
//!
//! Every cell's RNG is seeded from the grid seed and the cell's own
//! `(engine, model)` label, so results never depend on evaluation order,
//! and all synthesis/sampling is memoized in the process-wide
//! [`tpe_engine::EngineCache`] — a grid run after a `repro dse` sweep
//! reuses everything the sweep already priced.
//!
//! ## Quickstart
//!
//! ```
//! use tpe_engine::EngineSpec;
//! use tpe_pipeline::{run_grid, GridConfig};
//! use tpe_workloads::models;
//!
//! let models = vec![models::resnet18()];
//! let engines = EngineSpec::paper_roster();
//! let outcome = run_grid(&models, &engines, GridConfig::quick_test(2, 42));
//! assert_eq!(outcome.runs.len(), engines.len());
//! let best = outcome
//!     .runs
//!     .iter()
//!     .filter_map(|r| r.report.as_ref())
//!     .min_by(|a, b| a.delay_us.total_cmp(&b.delay_us))
//!     .unwrap();
//! assert!(best.delay_us > 0.0);
//! ```

pub mod grid;

pub use grid::{run_grid, GridConfig, GridOutcome, ModelRun};
