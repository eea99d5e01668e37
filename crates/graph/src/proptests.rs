//! Property-based tests for the graph substrate.

use std::collections::BTreeSet;

use proptest::prelude::*;

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use crate::delta::{apply_edge_delta, EdgeDelta};
use crate::transform::{degeneracy, permute_vertices, relabel};
use crate::traversal::{bfs_levels, connected_components};

/// Strategy producing an arbitrary (n, edge list) pair, including
/// self-loops and duplicates the builder must clean up.
pub fn arb_edges() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (1usize..60).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId);
        (Just(n), proptest::collection::vec(edge, 0..200))
    })
}

/// How a delta pair is drawn: an edge of the graph (present), an
/// arbitrary pair (mostly absent), or the pair spanning rows 0 and n-1.
#[derive(Clone, Copy, Debug)]
enum PairKind {
    Present,
    Arbitrary,
    Extremes,
}

/// One raw delta pair: its kind, a pick among the present edges, an
/// arbitrary pair, and whether it is written reversed.
type RawPair = (PairKind, usize, (VertexId, VertexId), bool);

fn arb_pair(n: usize) -> impl Strategy<Value = RawPair> {
    let kind = (0u8..7).prop_map(|k| match k {
        0..=2 => PairKind::Present,
        3..=5 => PairKind::Arbitrary,
        _ => PairKind::Extremes,
    });
    let pair = (0..n as VertexId, 0..n as VertexId);
    (kind, any::<usize>(), pair, any::<bool>())
}

/// Resolves raw pairs against `g`, dropping self loops (which the delta
/// rejects as a whole; a unit test covers that).
fn resolve(g: &Csr, raw: &[RawPair]) -> Vec<(VertexId, VertexId)> {
    let present: Vec<_> = g.edges().collect();
    let last = g.num_vertices() as VertexId - 1;
    raw.iter()
        .filter_map(|&(kind, pick, arbitrary, reversed)| {
            let (u, v) = match kind {
                PairKind::Present if !present.is_empty() => present[pick % present.len()],
                PairKind::Extremes => (0, last),
                _ => arbitrary,
            };
            let pair = if reversed { (v, u) } else { (u, v) };
            (pair.0 != pair.1).then_some(pair)
        })
        .collect()
}

/// A graph and a delta over it: inserts, deletes, and pairs listed in
/// both (delete-then-insert), each drawn by [`arb_pair`].
fn arb_graph_and_delta() -> impl Strategy<Value = (Csr, EdgeDelta)> {
    arb_edges().prop_flat_map(|(n, edges)| {
        let g = GraphBuilder::new(n).edges(edges).build();
        let pairs = move || proptest::collection::vec(arb_pair(n), 0..12);
        (Just(g), pairs(), pairs(), pairs()).prop_map(|(g, ins, del, both)| {
            let mut delta = EdgeDelta {
                insert: resolve(&g, &ins),
                delete: resolve(&g, &del),
            };
            for pair in resolve(&g, &both) {
                delta.insert.push(pair);
                delta.delete.push(pair);
            }
            (g, delta)
        })
    })
}

fn undirected(
    edges: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> BTreeSet<(VertexId, VertexId)> {
    edges
        .into_iter()
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The splice equals a from-scratch rebuild: same graph, same touched
    /// set, same change counts, and the result passes full validation.
    #[test]
    fn delta_splice_matches_rebuild((g, delta) in arb_graph_and_delta()) {
        let before = undirected(g.edges());
        let deleted = undirected(delta.delete.iter().copied());
        let inserted = undirected(delta.insert.iter().copied());
        let kept = before.iter().copied().filter(|e| !deleted.contains(e));
        let expect = GraphBuilder::new(g.num_vertices())
            .edges(kept.chain(inserted.iter().copied()))
            .build();
        let after = undirected(expect.edges());
        let mut touched: Vec<VertexId> = before
            .symmetric_difference(&after)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        touched.sort_unstable();
        touched.dedup();

        let out = apply_edge_delta(&g, &delta).unwrap();
        prop_assert_eq!(out.graph.validate(), Ok(()));
        prop_assert_eq!(&out.graph, &expect);
        prop_assert_eq!(out.touched, touched);
        prop_assert_eq!(out.inserted, after.difference(&before).count());
        prop_assert_eq!(out.deleted, before.difference(&after).count());

        let same = apply_edge_delta(&g, &EdgeDelta::default()).unwrap();
        prop_assert_eq!(same.graph, g);
        prop_assert!(same.touched.is_empty());
        prop_assert_eq!((same.inserted, same.deleted), (0, 0));
    }
}

proptest! {
    #[test]
    fn built_csr_always_valid((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn degree_sum_is_twice_edges((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let deg_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_sum, 2 * g.num_edges());
    }

    #[test]
    fn edges_iter_matches_has_edge((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        for (u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
        }
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn build_is_idempotent((n, edges) in arb_edges()) {
        let g1 = GraphBuilder::new(n).edges(edges).build();
        let g2 = GraphBuilder::new(n).edges(g1.edges().collect::<Vec<_>>()).build();
        prop_assert_eq!(g1, g2);
    }

    #[test]
    fn bfs_level_differences_bounded((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let levels = bfs_levels(&g, 0);
        // Adjacent reachable vertices differ by at most one level.
        for (u, v) in g.edges() {
            let (lu, lv) = (levels[u as usize], levels[v as usize]);
            if lu != u32::MAX || lv != u32::MAX {
                prop_assert!(lu != u32::MAX && lv != u32::MAX,
                    "one endpoint reachable, the other not");
                prop_assert!(lu.abs_diff(lv) <= 1);
            }
        }
    }

    #[test]
    fn relabel_preserves_degree_multiset((n, edges) in arb_edges(), seed in any::<u64>()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let (h, perm) = permute_vertices(&g, seed);
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for v in 0..n as VertexId {
            prop_assert_eq!(h.degree(perm[v as usize]), g.degree(v));
        }
        // Round trip through the inverse permutation.
        let mut inv = vec![0 as VertexId; n];
        for (i, &p) in perm.iter().enumerate() {
            inv[p as usize] = i as VertexId;
        }
        prop_assert_eq!(relabel(&h, &inv), g);
    }

    #[test]
    fn degeneracy_bounds((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let d = degeneracy(&g);
        prop_assert!(d <= g.max_degree());
        // Average-degree lower bound: degeneracy >= avg_degree / 2.
        prop_assert!(d as f64 >= g.avg_degree() / 2.0 - 1e-9);
    }

    #[test]
    fn components_are_edge_closed((n, edges) in arb_edges()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let (comp, k) = connected_components(&g);
        prop_assert!(k >= 1);
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
    }
}

/// Raw CSR arrays over `n` vertices, built from random directed pairs:
/// rows as drawn (unsorted, duplicates, self loops), rows cleaned but
/// usually asymmetric, or rows symmetrized with up to two random
/// entries then removed (symmetric when none was).
fn arb_raw_csr() -> impl Strategy<Value = (usize, Vec<usize>, Vec<VertexId>)> {
    (1usize..24)
        .prop_flat_map(|n| {
            let pair = (0..n as VertexId, 0..n as VertexId);
            let drops = proptest::collection::vec(any::<usize>(), 0..3);
            (
                Just(n),
                proptest::collection::vec(pair, 0..60),
                0u8..4,
                drops,
            )
        })
        .prop_map(|(n, pairs, mode, drops)| {
            let mut rows: Vec<Vec<VertexId>> = vec![Vec::new(); n];
            for &(u, v) in &pairs {
                rows[u as usize].push(v);
                if mode >= 2 {
                    rows[v as usize].push(u);
                }
            }
            if mode >= 1 {
                for (u, row) in rows.iter_mut().enumerate() {
                    row.sort_unstable();
                    row.dedup();
                    row.retain(|&w| w as usize != u);
                }
            }
            for d in drops {
                let row = &mut rows[d % n];
                if !row.is_empty() {
                    let len = row.len();
                    row.remove(d / n % len);
                }
            }
            let mut row_offsets = vec![0usize];
            let mut cols = Vec::new();
            for row in rows {
                cols.extend(row);
                row_offsets.push(cols.len());
            }
            (n, row_offsets, cols)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `validate` accepts exactly the arrays a brute-force check accepts
    /// (sorted, duplicate-free, in-range, loop-free rows whose directed
    /// pairs form a symmetric set), and a symmetry error names a pair
    /// present in one direction and missing in the other.
    #[test]
    fn validate_agrees_with_brute_force((n, row_offsets, cols) in arb_raw_csr()) {
        let row = |v: usize| &cols[row_offsets[v]..row_offsets[v + 1]];
        let pairs: BTreeSet<(usize, usize)> = (0..n)
            .flat_map(|v| row(v).iter().map(move |&u| (v, u as usize)))
            .collect();
        let rows_ok = (0..n).all(|v| {
            row(v).windows(2).all(|w| w[0] < w[1])
                && row(v).iter().all(|&u| (u as usize) < n && u as usize != v)
        });
        let symmetric = pairs.iter().all(|&(v, u)| pairs.contains(&(u, v)));
        let got = Csr::try_from_raw(n, row_offsets.clone(), cols.clone());
        prop_assert_eq!(got.is_ok(), rows_ok && symmetric);
        if let Err(e) = got {
            if e.contains("present but") {
                let ids: Vec<usize> = e
                    .split(|c: char| !c.is_ascii_digit())
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().unwrap())
                    .collect();
                let (a, b) = (ids[0], ids[1]);
                prop_assert!(pairs.contains(&(a, b)), "{}: ({}, {}) absent", e, a, b);
                prop_assert!(!pairs.contains(&(b, a)), "{}: ({}, {}) present", e, b, a);
            }
        }
    }
}
