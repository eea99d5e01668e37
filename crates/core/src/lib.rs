//! Parallel graph coloring on the (virtual) GPU — the reproduction of the
//! paper's contribution.
//!
//! Nine colorings, matching the legend of the paper's Figure 1:
//!
//! | name | module | paper algorithm |
//! |---|---|---|
//! | `CPU/Color_Greedy` | [`greedy`] | sequential greedy baseline |
//! | `Gunrock/Color_IS` | [`gunrock_is`] | Alg. 5 (min-max independent set) |
//! | `Gunrock/Color_Hash` | [`gunrock_hash`] | Alg. 6 (hash + conflict resolution) |
//! | `Gunrock/Color_AR` | [`gunrock_ar`] | Alg. 7 (advance + neighbor-reduce) |
//! | `GraphBLAST/Color_IS` | [`gblas_is`] | Alg. 2 (Luby one-shot IS) |
//! | `GraphBLAST/Color_MIS` | [`gblas_mis`] | Alg. 3 (maximal IS per color) |
//! | `GraphBLAST/Color_JPL` | [`gblas_jpl`] | Alg. 4 (Jones-Plassmann, `GxB_scatter`) |
//! | `Naumov/Color_JPL` | [`naumov`] | cuSPARSE-style JPL baseline |
//! | `Naumov/Color_CC` | [`naumov`] | cuSPARSE-style csrcolor baseline |
//!
//! Plus the paper's §VI future-work directions, implemented as
//! extensions: [`gm_gpu`] (Gebremedhin-Manne speculative coloring on the
//! GPU) and the largest-degree-first priority mode of [`gunrock_is`]
//! ([`gunrock_is::WeightMode::LargestDegreeFirst`]).
//!
//! On top of the reproduction sits the related-work **quality tier**:
//! the short-cutting IS variants (`Gunrock/Color_IS_SC`,
//! `GraphBLAST/Color_IS_SC` in [`runner::extension_colorers`])
//! first-fit into the lowest legal color instead of the round index,
//! and [`reduce`] squeezes colors out of *any* proper coloring with an
//! iterated-greedy post-pass. The fastest colorer plus that post-pass
//! is the service's `MinColors` route:
//!
//! ```
//! use gc_core::reduce::{reduce_colors, ReduceBudget};
//! use gc_graph::generators::erdos_renyi;
//! use gc_vgpu::Device;
//!
//! let g = erdos_renyi(500, 0.02, 7);
//! let fast = gc_core::naumov::naumov_cc(&g, 42);
//! let greedy = gc_core::greedy::greedy(&g, gc_core::greedy::Ordering::Natural, 42);
//!
//! // Post-pass on the speed-tier coloring: fewer colors, still proper.
//! let mut colors = fast.coloring.as_slice().to_vec();
//! let outcome = reduce_colors(&Device::k40c(), &g, &mut colors, ReduceBudget::default());
//! gc_core::assert_proper(&g, &colors);
//! assert!(outcome.colors_after < fast.num_colors);
//! assert!(outcome.colors_after <= greedy.num_colors + 1);
//! ```
//!
//! Every algorithm returns a [`ColoringResult`] carrying the coloring
//! itself (exact — quality numbers in the reproduction are real), the
//! model runtime in milliseconds, and iteration/launch statistics.
//! [`runner`] exposes the uniform registry the benches and examples use.
//!
//! The Gunrock-style device colorers (Gunrock IS/Hash/AR, both Naumov
//! baselines and GPU Gebremedhin-Manne) are round bodies on
//! one bulk-synchronous loop, [`rounds`]: it owns capture/replay,
//! frontier contraction, the per-round sync and the iteration spans,
//! and takes the launch shape — compacted frontier, or the paper's
//! full-width launches — as a parameter. [`Colorer::run_full_width`] is
//! the one place that asks for the paper's shape.
//!
//! ```
//! use gc_core::runner::colorer_by_name;
//! use gc_core::verify::is_proper;
//! use gc_graph::generators::{grid2d, Stencil2d};
//!
//! let g = grid2d(16, 16, Stencil2d::FivePoint);
//! let colorer = colorer_by_name("Gunrock/Color_IS").unwrap();
//! let result = colorer.run(&g, 42);
//! assert!(is_proper(&g, result.coloring.as_slice()).is_ok());
//! assert!(result.num_colors >= 2 && result.model_ms > 0.0);
//! ```

pub mod color;
pub mod cpu_model;
pub mod gblas_is;
pub mod gblas_jpl;
pub mod gblas_mis;
pub mod gm_cpu;
pub mod gm_gpu;
pub mod greedy;
pub mod gunrock_ar;
pub mod gunrock_hash;
pub mod gunrock_is;
pub mod jp_cpu;
pub mod naumov;
pub mod reduce;
pub mod rounds;
pub mod runner;
pub mod verify;

pub use color::{Coloring, ColoringResult};
pub use runner::{all_colorers, Colorer, ColorerKind};
pub use verify::{assert_proper, is_proper};

#[cfg(test)]
mod proptests;
