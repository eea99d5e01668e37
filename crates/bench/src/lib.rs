//! Experiment runners for every table and figure in the paper.
//!
//! Each function regenerates one exhibit's data as plain structs; the
//! `repro` binary formats them as tables and the integration tests
//! assert the paper's qualitative claims against them.

pub mod coloring_bench;
pub mod experiments;
pub mod format;
pub mod scale_sweep;
pub mod trace;

pub use experiments::*;
