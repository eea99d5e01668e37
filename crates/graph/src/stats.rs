//! Dataset statistics for regenerating Table I.
//!
//! The paper's Table I reports, for each dataset: vertex count, edge
//! count, average degree, and a diameter that is *"an estimate using
//! samples from 10,000 vertices"*. [`GraphStats::measure`] reproduces the
//! same sampled-eccentricity estimate.

use rayon::prelude::*;

use crate::csr::{Csr, VertexId};
use crate::traversal::eccentricity;

/// Degree distribution summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub avg: f64,
    /// Standard deviation of the degree distribution; the paper's
    /// load-imbalance discussion is about exactly this spread.
    pub std_dev: f64,
}

/// Per-dataset statistics matching the Table I columns.
#[derive(Clone, Debug)]
pub struct GraphStats {
    pub vertices: usize,
    /// Undirected edge count `m`.
    pub edges: usize,
    pub degrees: DegreeStats,
    /// Sampled diameter estimate (max eccentricity over the sample).
    pub diameter_estimate: u32,
    /// Number of vertices sampled for the diameter estimate.
    pub diameter_samples: usize,
}

/// Default sample size used by the paper ("samples from 10,000 vertices").
pub const DIAMETER_SAMPLES: usize = 10_000;

/// Degree statistics of `g`: computed on the first call and kept with
/// the graph (see [`Csr::degree_stats`]), so later calls are free.
pub fn degree_stats(g: &Csr) -> DegreeStats {
    *g.degree_stats()
}

impl DegreeStats {
    /// The statistics of the degrees `row_offsets[v + 1] - row_offsets[v]`,
    /// in one pass without allocating. Sums are exact integers: `avg` is
    /// the degree sum over `n`, and the variance is `(n·Σd² − (Σd)²) / n²`
    /// with numerator and denominator exact before the division.
    pub(crate) fn of(row_offsets: &[usize]) -> Self {
        let n = row_offsets.len().saturating_sub(1);
        if n == 0 {
            return DegreeStats {
                min: 0,
                max: 0,
                avg: 0.0,
                std_dev: 0.0,
            };
        }
        let (mut min, mut max, mut sum, mut sum_sq) = (usize::MAX, 0, 0u128, 0u128);
        for w in row_offsets.windows(2) {
            let d = w[1] - w[0];
            min = min.min(d);
            max = max.max(d);
            sum += d as u128;
            sum_sq += (d as u128) * (d as u128);
        }
        let n_exact = n as u128;
        let var = (n_exact * sum_sq - sum * sum) as f64 / (n_exact * n_exact) as f64;
        DegreeStats {
            min,
            max,
            avg: sum as f64 / n as f64,
            std_dev: var.sqrt(),
        }
    }
}

/// Diameter estimated as the maximum eccentricity over `samples`
/// deterministically-spread source vertices (matching the paper's sampled
/// estimates marked `*` in Table I). Exact when `samples >= n`.
pub fn estimate_diameter(g: &Csr, samples: usize) -> u32 {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let count = samples.min(n);
    let stride = (n / count).max(1);
    (0..count)
        .into_par_iter()
        .map(|i| eccentricity(g, ((i * stride) % n) as VertexId))
        .max()
        .unwrap_or(0)
}

impl GraphStats {
    /// Measures every Table I column for `g`, sampling at most
    /// `diameter_samples` sources for the diameter estimate.
    pub fn measure(g: &Csr, diameter_samples: usize) -> Self {
        GraphStats {
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            degrees: degree_stats(g),
            diameter_estimate: estimate_diameter(g, diameter_samples),
            diameter_samples: diameter_samples.min(g.num_vertices()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle, path, star};

    #[test]
    fn degree_stats_star() {
        let s = degree_stats(&star(5));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.avg - 8.0 / 5.0).abs() < 1e-12);
        assert!(s.std_dev > 1.0);
    }

    #[test]
    fn degree_stats_regular_graph_zero_spread() {
        let s = degree_stats(&cycle(10));
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn one_pass_matches_two_pass_definition() {
        for g in [
            star(9),
            path(7),
            crate::generators::barabasi_albert(500, 3, 7),
        ] {
            let degrees: Vec<f64> = g.vertices().map(|v| g.degree(v) as f64).collect();
            let n = degrees.len() as f64;
            let avg = g.num_directed_edges() as f64 / n;
            let var = degrees.iter().map(|d| (d - avg).powi(2)).sum::<f64>() / n;
            let s = degree_stats(&g);
            assert_eq!(s.avg, avg, "the mean is the exact degree sum over n");
            assert!((s.std_dev - var.sqrt()).abs() <= 1e-12 * var.sqrt().max(1.0));
        }
    }

    #[test]
    fn degree_stats_empty() {
        let s = degree_stats(&crate::Csr::empty(0));
        assert_eq!(s.avg, 0.0);
    }

    #[test]
    fn diameter_exact_on_path() {
        assert_eq!(estimate_diameter(&path(10), 100), 9);
    }

    #[test]
    fn diameter_sampled_lower_bounds_exact() {
        let g = path(100);
        let sampled = estimate_diameter(&g, 5);
        let exact = estimate_diameter(&g, 100);
        assert!(sampled <= exact);
        assert!(
            sampled >= exact / 2,
            "a strided sample of a path sees most of it"
        );
    }

    #[test]
    fn diameter_complete_is_one() {
        assert_eq!(estimate_diameter(&complete(8), 8), 1);
    }

    #[test]
    fn measure_reports_all_columns() {
        let g = cycle(16);
        let s = GraphStats::measure(&g, 1000);
        assert_eq!(s.vertices, 16);
        assert_eq!(s.edges, 16);
        assert_eq!(s.diameter_estimate, 8);
        assert_eq!(s.diameter_samples, 16);
    }
}
