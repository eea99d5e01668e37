//! Batched edge insert/delete deltas over a [`Csr`] graph.
//!
//! Dynamic-graph clients (the `gc-net` wire protocol) mutate a graph by
//! shipping small batches of edge changes instead of re-submitting the
//! whole CSR. [`apply_edge_delta`] splices the delta into a copy of the
//! adjacency structure and reports exactly which vertices were
//! *touched* — the endpoints of edges that actually changed — so the
//! caller can seed an incremental-recoloring frontier with just those
//! vertices rather than recoloring from scratch.
//!
//! # Cost
//!
//! Only the rows the symmetrized delta names are merged. Every run of
//! untouched rows between two named rows is copied with one
//! `extend_from_slice` of its neighbor lists, its row offsets shifted by
//! a running constant. For a delta of Δ pairs on a graph with `n`
//! vertices, `E` arcs and degree `d`, a splice costs an `O(n)` offset
//! shift, an `O(E)` memcpy, and `O(Δ·d log d)` for merging, checking and
//! symmetry-probing the rewritten rows (plus `O(Δ log Δ)` to sort the
//! delta). No per-arc work touches the untouched rows.
//!
//! # Why checking the rewritten rows suffices
//!
//! The input is a [`Csr`], and every public `Csr` constructor validates
//! every invariant, so all untouched rows — copied verbatim — are
//! already strictly ascending, in range and loop-free, and each of their
//! arcs `(w, u)` had its mirror `(u, w)` in the input. The splice then
//! checks each rewritten row `v` on its own (strictly ascending, in
//! range, loop-free) and checks symmetry only where it can change:
//!
//! * every new neighbor `u` of `v` must have `v` in its new row;
//! * every neighbor `u` that `v` lost must have lost `v` too.
//!
//! Together these cover every arc of the output. An arc `(v, u)` that is
//! new has its mirror by the first check. An arc carried over from the
//! input had its mirror `(u, v)` in the input; that mirror can only be
//! missing now if row `u` lost `v`, which the second check (run on row
//! `u`) rejects. Row offsets are non-decreasing and end at the arc count
//! by construction. A violation — which a correct merge never produces —
//! comes back as an `Err`, and debug builds still run the full
//! [`Csr::validate`] on every result.

use std::cmp::Ordering;

use crate::csr::{Csr, VertexId};

/// A batch of undirected edge changes. Edges are unordered pairs; both
/// `(u, v)` and `(v, u)` denote the same edge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    pub insert: Vec<(VertexId, VertexId)>,
    pub delete: Vec<(VertexId, VertexId)>,
}

impl EdgeDelta {
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    pub fn len(&self) -> usize {
        self.insert.len() + self.delete.len()
    }
}

/// The result of applying an [`EdgeDelta`].
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The mutated graph.
    pub graph: Csr,
    /// Unique, ascending endpoints of edges that actually changed —
    /// inserting an edge already present or deleting one already absent
    /// touches nothing. This is the seed frontier for incremental
    /// recoloring: deletions can never make a proper coloring improper,
    /// and an insertion can only conflict at its two endpoints.
    pub touched: Vec<VertexId>,
    /// Edges actually added (requested inserts minus duplicates and
    /// already-present edges).
    pub inserted: usize,
    /// Edges actually removed.
    pub deleted: usize,
}

/// Applies `delta` to `g`, returning the mutated graph and the set of
/// touched vertices.
///
/// Semantics:
///
/// * endpoints must be in range and distinct (no self loops), otherwise
///   the whole batch is rejected;
/// * deletes are applied first, then inserts — an edge listed in both
///   ends up present;
/// * duplicate pairs within a batch collapse to one change;
/// * inserting a present edge / deleting an absent one is a no-op and
///   does not count as a change.
///
/// Cost is `O(n + E + Δ·d log d)`: an offset shift over all `n` rows, a
/// memcpy of the untouched neighbor lists, and a merge plus local check
/// of the rows the delta names (see the [module docs](self) for why the
/// local check proves every [`Csr`] invariant). The result is not
/// re-validated edge by edge outside debug builds.
pub fn apply_edge_delta(g: &Csr, delta: &EdgeDelta) -> Result<DeltaOutcome, String> {
    let n = g.num_vertices();
    let check = |pairs: &[(VertexId, VertexId)], what: &str| -> Result<(), String> {
        for &(u, v) in pairs {
            if u as usize >= n || v as usize >= n {
                return Err(format!("{what} ({u}, {v}) out of range for n = {n}"));
            }
            if u == v {
                return Err(format!("{what} ({u}, {v}) is a self loop"));
            }
        }
        Ok(())
    };
    check(&delta.insert, "insert")?;
    check(&delta.delete, "delete")?;

    // Directed views of the delta, sorted so each vertex's changes form a
    // contiguous ascending run that merges against its old neighbor list.
    let directed = |pairs: &[(VertexId, VertexId)]| -> Vec<(VertexId, VertexId)> {
        let mut arcs = Vec::with_capacity(pairs.len() * 2);
        for &(u, v) in pairs {
            arcs.push((u, v));
            arcs.push((v, u));
        }
        arcs.sort_unstable();
        arcs.dedup();
        arcs
    };
    let ins = directed(&delta.insert);
    let del = directed(&delta.delete);

    let old_offsets = g.row_offsets();
    let old_cols = g.col_indices();
    let mut row_offsets = Vec::with_capacity(n + 1);
    row_offsets.push(0usize);
    let mut cols: Vec<VertexId> = Vec::with_capacity(old_cols.len() + ins.len());
    // Copies rows `lo..hi` verbatim: one memcpy of their neighbor lists,
    // their offsets shifted by where that run now starts.
    let copy_rows = |lo: usize, hi: usize, row_offsets: &mut Vec<usize>, cols: &mut Vec<_>| {
        let (from, to) = (old_offsets[lo], old_offsets[hi]);
        let base = cols.len();
        cols.extend_from_slice(&old_cols[from..to]);
        row_offsets.extend(old_offsets[lo + 1..=hi].iter().map(|&o| o - from + base));
    };

    let mut rewritten = Vec::new();
    let mut touched = Vec::new();
    // Arcs `(v, u)` that actually appeared in / vanished from row `v`.
    let mut gained = Vec::new();
    let mut lost = Vec::new();
    let (mut ii, mut di) = (0usize, 0usize);
    let mut next_row = 0usize;
    loop {
        let v = match (ins.get(ii), del.get(di)) {
            (Some(a), Some(b)) => a.0.min(b.0),
            (Some(a), None) => a.0,
            (None, Some(b)) => b.0,
            (None, None) => break,
        };
        copy_rows(next_row, v as usize, &mut row_offsets, &mut cols);
        next_row = v as usize + 1;

        let ins_v = &ins[ii..ii + ins[ii..].partition_point(|a| a.0 == v)];
        let del_v = &del[di..di + del[di..].partition_point(|a| a.0 == v)];
        ii += ins_v.len();
        di += del_v.len();
        let changes = gained.len() + lost.len();

        // Merge the old sorted neighbor run with this vertex's sorted
        // insert run, dropping old neighbors in its delete run unless they
        // are re-inserted (delete-then-insert keeps the edge).
        let old = g.neighbors(v);
        let (mut oi, mut ni) = (0usize, 0usize);
        loop {
            let next_old = old.get(oi).copied();
            let next_ins = ins_v.get(ni).map(|a| a.1);
            let order = match (next_old, next_ins) {
                (Some(o), Some(i)) => o.cmp(&i),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            match order {
                Ordering::Less => {
                    let u = old[oi];
                    oi += 1;
                    if del_v.binary_search(&(v, u)).is_ok() {
                        lost.push((v, u));
                    } else {
                        cols.push(u);
                    }
                }
                // An insert of an already-present edge changes nothing.
                Ordering::Equal => {
                    cols.push(old[oi]);
                    oi += 1;
                    ni += 1;
                }
                Ordering::Greater => {
                    let u = ins_v[ni].1;
                    ni += 1;
                    cols.push(u);
                    gained.push((v, u));
                }
            }
        }
        row_offsets.push(cols.len());
        rewritten.push(v);
        if gained.len() + lost.len() > changes {
            touched.push(v);
        }
    }
    copy_rows(next_row, n, &mut row_offsets, &mut cols);

    // Local validation: see the module docs for why these checks, over
    // the rewritten rows only, prove every `Csr` invariant.
    let graph = Csr::from_raw_unchecked(n, row_offsets, cols);
    let invalid = |e: String| format!("delta produced an invalid CSR (bug): {e}");
    for &v in &rewritten {
        graph.check_row(v).map_err(invalid)?;
    }
    for &(v, u) in &gained {
        if !graph.has_edge(u, v) {
            return Err(invalid(format!(
                "edge ({v}, {u}) inserted but ({u}, {v}) missing"
            )));
        }
    }
    for &(v, u) in &lost {
        if graph.has_edge(u, v) {
            return Err(invalid(format!(
                "edge ({v}, {u}) deleted but ({u}, {v}) kept"
            )));
        }
    }
    debug_assert_eq!(
        graph.validate(),
        Ok(()),
        "spliced CSR failed full validation"
    );
    Ok(DeltaOutcome {
        graph,
        touched,
        inserted: gained.len() / 2,
        deleted: lost.len() / 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, erdos_renyi};
    use crate::GraphBuilder;

    fn delta(insert: &[(VertexId, VertexId)], delete: &[(VertexId, VertexId)]) -> EdgeDelta {
        EdgeDelta {
            insert: insert.to_vec(),
            delete: delete.to_vec(),
        }
    }

    #[test]
    fn insert_and_delete_edges() {
        let g = cycle(6); // 0-1-2-3-4-5-0
        let out = apply_edge_delta(&g, &delta(&[(0, 3)], &[(1, 2)])).unwrap();
        assert!(out.graph.has_edge(0, 3));
        assert!(!out.graph.has_edge(1, 2));
        assert_eq!(out.inserted, 1);
        assert_eq!(out.deleted, 1);
        assert_eq!(out.touched, vec![0, 1, 2, 3]);
        assert!(out.graph.validate().is_ok());
    }

    #[test]
    fn noop_changes_touch_nothing() {
        let g = cycle(5);
        // Edge (0, 1) already exists; (2, 4) never did.
        let out = apply_edge_delta(&g, &delta(&[(0, 1)], &[(2, 4)])).unwrap();
        assert_eq!(out.inserted, 0);
        assert_eq!(out.deleted, 0);
        assert!(out.touched.is_empty());
        assert_eq!(out.graph, g);
    }

    #[test]
    fn unordered_and_duplicate_pairs_collapse() {
        let g = Csr::empty(4);
        let out = apply_edge_delta(&g, &delta(&[(2, 1), (1, 2), (1, 2)], &[])).unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(out.graph.num_edges(), 1);
        assert!(out.graph.has_edge(1, 2));
        assert_eq!(out.touched, vec![1, 2]);
    }

    #[test]
    fn delete_then_insert_keeps_the_edge() {
        let g = cycle(4);
        let out = apply_edge_delta(&g, &delta(&[(0, 1)], &[(0, 1)])).unwrap();
        assert!(out.graph.has_edge(0, 1));
        assert_eq!(out.graph, g);
        assert_eq!((out.inserted, out.deleted), (0, 0));
    }

    #[test]
    fn rejects_out_of_range_and_self_loops() {
        let g = cycle(4);
        assert!(apply_edge_delta(&g, &delta(&[(0, 9)], &[]))
            .unwrap_err()
            .contains("out of range"));
        assert!(apply_edge_delta(&g, &delta(&[], &[(2, 2)]))
            .unwrap_err()
            .contains("self loop"));
    }

    #[test]
    fn corrupt_rewritten_row_is_an_error() {
        // Row 0 is out of order. No public constructor admits this, so it
        // stands in for a merge bug; the check of rewritten rows catches it.
        let g = Csr::from_raw_unchecked(3, vec![0, 2, 3, 4], vec![2, 1, 0, 0]);
        let err = apply_edge_delta(&g, &delta(&[(0, 2)], &[])).unwrap_err();
        assert!(err.contains("not sorted"), "{err}");
    }

    #[test]
    fn matches_rebuild_from_scratch() {
        let g = erdos_renyi(60, 0.08, 3);
        let ins = [(0, 59), (10, 20), (5, 6)];
        let del: Vec<_> = g.edges().take(7).collect();
        let out = apply_edge_delta(
            &g,
            &EdgeDelta {
                insert: ins.to_vec(),
                delete: del.clone(),
            },
        )
        .unwrap();

        let mut b = GraphBuilder::new(60);
        for (u, v) in g.edges() {
            let norm = (u.min(v), u.max(v));
            if !del.iter().any(|&(a, c)| (a.min(c), a.max(c)) == norm) {
                b.push(u, v);
            }
        }
        for &(u, v) in &ins {
            b.push(u, v);
        }
        let expect = b.build();
        assert_eq!(out.graph, expect);
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = erdos_renyi(30, 0.1, 1);
        let out = apply_edge_delta(&g, &EdgeDelta::default()).unwrap();
        assert_eq!(out.graph, g);
        assert!(out.touched.is_empty());
        assert!(EdgeDelta::default().is_empty());
        assert_eq!(EdgeDelta::default().len(), 0);
    }
}
