//! Adaptive algorithm selection.
//!
//! The paper's Figure 1 is a time/quality trade-off across nine
//! implementations; a serving layer has to pick one per request. The
//! policy engine maps (graph statistics, objective) to a registered
//! implementation:
//!
//! * [`Objective::Fastest`] — `Naumov/Color_CC`, the paper's fastest
//!   implementation (most colors). Tiny graphs fall back to sequential
//!   greedy: below a few thousand vertices, kernel-launch overhead
//!   dominates and the CPU baseline wins (the paper's small-dataset
//!   observation).
//! * [`Objective::FewestColors`] — `GraphBLAST/Color_MIS`, the paper's
//!   best-quality implementation (maximal independent set per color).
//! * [`Objective::Balanced`] — `Gunrock/Color_IS` (min-max, two colors
//!   per iteration), the knee of the curve. On strongly irregular degree
//!   distributions the serial neighbor loop load-imbalances, so the
//!   policy switches to the load-balanced IS variant (the fix suggested
//!   by the paper's §V.B discussion and by Chen et al.'s sparse-coloring
//!   follow-up).
//! * [`Objective::MinColors`] — the quality tier: `Naumov/Color_CC`,
//!   the same cheap base `Fastest` runs, after which the worker spends
//!   the request's model-time budget in the [`gc_core::reduce`]
//!   iterated-greedy post-pass. One pass takes the base to the CPU
//!   baseline's count on the gated meshes at a fraction of the MIS
//!   pipeline's device work. Tiny graphs go straight to sequential
//!   greedy, same as the other objectives.
//! * [`Objective::Explicit`] — escape hatch through
//!   [`gc_core::runner::colorer_by_name`], which resolves Figure 1 and
//!   §VI extension names alike.

use gc_core::runner::{colorer_by_name, Colorer};
use gc_graph::stats::degree_stats;
use gc_graph::Csr;

use crate::request::{Objective, ServiceError};

/// Cheap per-graph features the policy decides on. Degree statistics are
/// one O(V) pass over the row offsets on a graph's first request and
/// are read from the graph afterwards ([`gc_graph::Csr::degree_stats`]);
/// nothing here runs BFS or touches the edge list.
#[derive(Clone, Copy, Debug)]
pub struct GraphFeatures {
    pub vertices: usize,
    pub edges: usize,
    pub avg_degree: f64,
    pub max_degree: usize,
    /// Coefficient of variation of the degree distribution
    /// (`std_dev / avg`); the paper's load-imbalance discussion is about
    /// exactly this spread. ~0 for meshes, >1 for power-law graphs.
    pub degree_cv: f64,
}

/// Below this vertex count the GPU pipelines are launch-overhead-bound
/// and sequential greedy is both faster *and* better-quality.
pub const TINY_GRAPH_VERTICES: usize = 2_000;

/// Degree coefficient-of-variation above which the thread-mapped IS
/// kernel load-imbalances badly enough to justify the load-balanced
/// variant.
pub const IRREGULAR_DEGREE_CV: f64 = 1.0;

pub fn features(g: &Csr) -> GraphFeatures {
    let d = degree_stats(g);
    GraphFeatures {
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        avg_degree: d.avg,
        max_degree: d.max,
        degree_cv: if d.avg > 0.0 { d.std_dev / d.avg } else { 0.0 },
    }
}

/// Picks the implementation for `objective` on a graph with `feats`.
pub fn choose(feats: &GraphFeatures, objective: &Objective) -> Result<Colorer, ServiceError> {
    let tiny = feats.vertices < TINY_GRAPH_VERTICES;
    let name = match objective {
        Objective::Explicit(name) => name.as_str(),
        // Sequential greedy is already first-fit quality, and for
        // MinColors the post-pass still applies on top.
        Objective::Fastest | Objective::MinColors { .. } | Objective::Balanced if tiny => {
            "CPU/Color_Greedy"
        }
        Objective::Fastest | Objective::MinColors { .. } => "Naumov/Color_CC",
        Objective::FewestColors => "GraphBLAST/Color_MIS",
        Objective::Balanced if feats.degree_cv > IRREGULAR_DEGREE_CV => "Extension/Color_IS_LB",
        Objective::Balanced => "Gunrock/Color_IS",
    };
    colorer_by_name(name).ok_or_else(|| ServiceError::UnknownColorer(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::generators::{barabasi_albert, cycle, grid2d, Stencil2d};

    fn big_mesh() -> Csr {
        // ~10k vertices, near-regular degrees.
        grid2d(100, 100, Stencil2d::FivePoint)
    }

    #[test]
    fn features_mesh_is_regular() {
        let f = features(&big_mesh());
        assert!(f.vertices >= TINY_GRAPH_VERTICES);
        assert!(f.degree_cv < 0.2, "grid cv {}", f.degree_cv);
    }

    #[test]
    fn fastest_large_graph_routes_to_naumov_cc() {
        let g = big_mesh();
        let c = choose(&features(&g), &Objective::Fastest).unwrap();
        assert_eq!(c.name(), "Naumov/Color_CC");
    }

    #[test]
    fn fastest_tiny_graph_routes_to_cpu_greedy() {
        let g = cycle(64);
        let c = choose(&features(&g), &Objective::Fastest).unwrap();
        assert_eq!(c.name(), "CPU/Color_Greedy");
        assert!(!c.is_gpu());
    }

    #[test]
    fn fewest_colors_routes_to_gblas_mis() {
        let g = big_mesh();
        let c = choose(&features(&g), &Objective::FewestColors).unwrap();
        assert_eq!(c.name(), "GraphBLAST/Color_MIS");
    }

    #[test]
    fn balanced_regular_routes_to_gunrock_is() {
        let g = big_mesh();
        let c = choose(&features(&g), &Objective::Balanced).unwrap();
        assert_eq!(c.name(), "Gunrock/Color_IS");
    }

    #[test]
    fn balanced_powerlaw_routes_to_load_balanced_is() {
        // Barabási-Albert graphs have heavy-tailed degrees.
        let g = barabasi_albert(4000, 3, 7);
        let f = features(&g);
        if f.degree_cv > IRREGULAR_DEGREE_CV {
            let c = choose(&f, &Objective::Balanced).unwrap();
            assert_eq!(c.name(), "Extension/Color_IS_LB");
        }
    }

    #[test]
    fn min_colors_routes_to_naumov_cc() {
        let g = big_mesh();
        let c = choose(&features(&g), &Objective::MinColors { budget_ms: 5 }).unwrap();
        assert_eq!(c.name(), "Naumov/Color_CC");
        assert!(c.is_gpu());
    }

    #[test]
    fn min_colors_tiny_graph_routes_to_cpu_greedy() {
        let g = cycle(64);
        let c = choose(&features(&g), &Objective::MinColors { budget_ms: 5 }).unwrap();
        assert_eq!(c.name(), "CPU/Color_Greedy");
    }

    #[test]
    fn explicit_resolves_extensions_and_rejects_unknown() {
        let g = cycle(8);
        let f = features(&g);
        let c = choose(&f, &Objective::Explicit("CPU/Color_JP".into())).unwrap();
        assert_eq!(c.name(), "CPU/Color_JP");
        let err = choose(&f, &Objective::Explicit("nope".into())).unwrap_err();
        assert_eq!(err, ServiceError::UnknownColorer("nope".into()));
    }
}
