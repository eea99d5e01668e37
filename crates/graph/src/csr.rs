//! Compressed sparse row (CSR) adjacency structure.
//!
//! CSR is the on-device format both frameworks in the paper consume: a
//! row-offsets array and a column-indices (neighbor list) array. Vertices
//! are `u32`, matching the 32-bit vertex ids used by Gunrock and
//! GraphBLAST on the GPU.

use std::sync::OnceLock;

use crate::stats::DegreeStats;

/// Vertex identifier. 32 bits, as on the GPU.
pub type VertexId = u32;

/// An undirected graph stored as a symmetric CSR adjacency structure.
///
/// Invariants (upheld by [`crate::GraphBuilder`] and checked by
/// [`Csr::validate`]):
///
/// * `row_offsets.len() == n + 1`, `row_offsets[0] == 0`,
///   `row_offsets[n] == col_indices.len()`, offsets non-decreasing;
/// * every neighbor id is `< n`;
/// * no self loops;
/// * each neighbor list is sorted and duplicate-free;
/// * symmetric: `u ∈ adj(v) ⇔ v ∈ adj(u)`.
///
/// A `Csr` is immutable once built, so per-graph values derived from it
/// are computed once and kept with it ([`Csr::degree_stats`]). Equality
/// is structural: two graphs with the same arrays are equal whatever
/// either has computed so far.
#[derive(Clone, Debug)]
pub struct Csr {
    n: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<VertexId>,
    degree_stats: OnceLock<DegreeStats>,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.row_offsets == other.row_offsets
            && self.col_indices == other.col_indices
    }
}

impl Eq for Csr {}

impl Csr {
    /// Builds a CSR graph directly from raw arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays do not form a structurally valid CSR (see the
    /// type-level invariants). Use [`crate::GraphBuilder`] to construct a
    /// graph from an arbitrary edge list instead.
    pub fn from_raw(n: usize, row_offsets: Vec<usize>, col_indices: Vec<VertexId>) -> Self {
        Self::try_from_raw(n, row_offsets, col_indices).expect("invalid CSR arrays")
    }

    /// Non-panicking [`Csr::from_raw`]: validates the arrays and returns
    /// the first invariant violation instead of panicking. This is the
    /// ingest path for untrusted input (e.g. a CSR arriving over the
    /// `gc-net` wire protocol), where malformed structure must become a
    /// protocol error, never a crash.
    pub fn try_from_raw(
        n: usize,
        row_offsets: Vec<usize>,
        col_indices: Vec<VertexId>,
    ) -> Result<Self, String> {
        let g = Self::from_raw_unchecked(n, row_offsets, col_indices);
        g.validate()?;
        Ok(g)
    }

    /// Wraps arrays the caller has already proven to be a valid CSR,
    /// skipping the `O(V + E)` re-validation of [`Csr::try_from_raw`].
    /// The edge-delta splice uses it after checking the rows it rewrote.
    pub(crate) fn from_raw_unchecked(
        n: usize,
        row_offsets: Vec<usize>,
        col_indices: Vec<VertexId>,
    ) -> Self {
        Self {
            n,
            row_offsets,
            col_indices,
            degree_stats: OnceLock::new(),
        }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_raw_unchecked(n, vec![0; n + 1], Vec::new())
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of *directed* edges stored, i.e. the CSR `nnz`. For an
    /// undirected graph this is twice the number of undirected edges.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_indices.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.row_offsets[v + 1] - self.row_offsets[v]
    }

    /// The sorted neighbor list of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col_indices[self.row_offsets[v]..self.row_offsets[v + 1]]
    }

    /// Whether the edge `(u, v)` is present. `O(log degree(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Row offsets array of length `n + 1`.
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// Column indices (concatenated neighbor lists) of length `nnz`.
    #[inline]
    pub fn col_indices(&self) -> &[VertexId] {
        &self.col_indices
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n as VertexId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_offsets.len() != self.n + 1 {
            return Err(format!(
                "row_offsets has length {}, expected n + 1 = {}",
                self.row_offsets.len(),
                self.n + 1
            ));
        }
        if self.row_offsets[0] != 0 {
            return Err("row_offsets[0] != 0".into());
        }
        if *self.row_offsets.last().unwrap() != self.col_indices.len() {
            return Err("row_offsets[n] != nnz".into());
        }
        for v in 0..self.n {
            if self.row_offsets[v] > self.row_offsets[v + 1] {
                return Err(format!("row_offsets decrease at vertex {v}"));
            }
            self.check_row(v as VertexId)?;
        }
        // Symmetry, in one ascending sweep over the rows. Every row is
        // sorted, so a symmetric row `u` receives its reverse entries
        // `(v, u)` in its own order: `cursor[u]` must point at `v` when
        // `(v, u)` is visited. An entry the cursor passes unmatched has
        // no reverse edge. A sweep that passes consumed one entry per
        // visit, `nnz` in all, so every cursor ends at its row's end.
        let mut cursor = self.row_offsets[..self.n].to_vec();
        let unmatched = |u: usize, w: VertexId| -> String {
            format!("edge ({u}, {w}) present but ({w}, {u}) missing")
        };
        for v in 0..self.n as VertexId {
            for &u in self.neighbors(v) {
                let (u, end) = (u as usize, self.row_offsets[u as usize + 1]);
                match self.col_indices[cursor[u]..end].first() {
                    Some(&w) if w == v => cursor[u] += 1,
                    // Row `w < v` was swept without reaching `(u, w)`.
                    Some(&w) if w < v => return Err(unmatched(u, w)),
                    _ => return Err(unmatched(v as usize, u as VertexId)),
                }
            }
        }
        debug_assert!((0..self.n).all(|u| cursor[u] == self.row_offsets[u + 1]));
        Ok(())
    }

    /// Checks the neighbor list of `v` on its own: strictly ascending
    /// (sorted, duplicate-free), in range and loop-free. Symmetry is a
    /// property between rows and is checked by the caller.
    pub(crate) fn check_row(&self, v: VertexId) -> Result<(), String> {
        let adj = self.neighbors(v);
        for w in adj.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("neighbor list of {v} not sorted/deduped"));
            }
        }
        for &u in adj {
            if u as usize >= self.n {
                return Err(format!("vertex {v} has out-of-range neighbor {u}"));
            }
            if u == v {
                return Err(format!("self loop at vertex {v}"));
            }
        }
        Ok(())
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.n as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Degree statistics, computed by one pass over the row offsets on
    /// the first call and returned from the graph afterwards. A mutated
    /// graph is a new `Csr` and computes its own on first use.
    pub fn degree_stats(&self) -> &DegreeStats {
        self.degree_stats
            .get_or_init(|| DegreeStats::of(&self.row_offsets))
    }

    /// Average degree `nnz / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.col_indices.len() as f64 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Csr {
        GraphBuilder::new(3).edges([(0, 1), (1, 2), (2, 0)]).build()
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Csr::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert!(g.validate().is_ok());
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_lookup() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn from_raw_rejects_asymmetric() {
        // Edge 0->1 present without 1->0.
        let _ = Csr::from_raw(2, vec![0, 1, 1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn from_raw_rejects_self_loop() {
        let _ = Csr::from_raw(1, vec![0, 1], vec![0]);
    }

    #[test]
    fn validate_reports_unsorted() {
        let g = Csr::from_raw_unchecked(3, vec![0, 2, 3, 4], vec![2, 1, 0, 0]);
        assert!(g.validate().unwrap_err().contains("not sorted"));
    }

    #[test]
    fn degree_stats_are_computed_once_and_ignored_by_equality() {
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (0, 3)]).build();
        assert!(g.degree_stats.get().is_none());
        let first = g.degree_stats();
        assert!(
            std::ptr::eq(first, g.degree_stats()),
            "the second read returns the memoized value"
        );
        assert_eq!((first.min, first.max, first.avg), (1, 3, 1.5));
        // A fresh copy of the same arrays has computed nothing yet and
        // still compares equal.
        let fresh = Csr::from_raw(4, g.row_offsets().to_vec(), g.col_indices().to_vec());
        assert!(fresh.degree_stats.get().is_none());
        assert_eq!(fresh, g);
    }
}
