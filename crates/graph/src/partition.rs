//! Edge-cut graph partitioning for multi-device (sharded) execution.
//!
//! The sharding layer (`gc-shard`) colors one graph across N simulated
//! devices. This module supplies the host-side split: contiguous vertex
//! ranges balanced by adjacency size, with each shard carrying
//!
//! * a **local CSR** over its owned vertices (intra-shard edges only,
//!   re-indexed to local ids) that any existing colorer can consume
//!   unchanged, and
//! * the **cut structure** — which owned vertices have edges crossing
//!   the partition (the *boundary*), and the global ids of their remote
//!   endpoints (the *halo*) — that the conflict-resolution loop needs.
//!
//! Contiguous ranges keep the split deterministic and make ownership a
//! binary search over `k + 1` range bounds rather than an `n`-entry map;
//! balancing by `degree + 1` weight approximates equal per-device work
//! for both dense and isolated-vertex-heavy graphs. With one shard the
//! local CSR *is* the input graph (same arrays, empty cut), which is
//! what lets the sharded runner stay bit-identical to the single-device
//! path at `devices = 1`.

use std::collections::VecDeque;

use crate::csr::{Csr, VertexId};

/// How [`Partition::with_strategy`] assigns vertices to shards.
///
/// Both strategies produce shards over *contiguous* global id ranges —
/// the invariant the whole sharded runner is built on. `BfsGrown` gets
/// there by relabeling: it grows shard territories with a multi-source
/// BFS over the input graph and then renames vertices so each
/// territory becomes a contiguous range, recording the permutation so
/// results can be mapped back to input ids ([`Partition::unpermute`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous input-order ranges balanced by `degree + 1` weight —
    /// the original strategy, kept as the baseline knob. Cheap and
    /// bit-stable in input id space, but cuts whatever the input
    /// ordering happens to cut.
    Contiguous,
    /// Seeded multi-source BFS growth balanced on degree: `k` evenly
    /// spaced seeds each grow a territory, always extending the
    /// lightest shard first, so territories follow the graph's actual
    /// connectivity instead of its id order. On meshes this shrinks the
    /// boundary (and with it the halo) by orders of magnitude; on
    /// graphs dominated by random long-range edges it matches
    /// `Contiguous` to within noise. The default for sharded runs.
    #[default]
    BfsGrown,
}

/// One device's share of a partitioned graph.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Position of this shard in the partition (device index).
    pub index: usize,
    /// First global vertex id owned by this shard; the shard owns the
    /// contiguous range `start .. start + local.num_vertices()`.
    pub start: VertexId,
    /// Intra-shard subgraph over the owned range, re-indexed so owned
    /// vertex `g` becomes local vertex `g - start`. Cut edges are *not*
    /// present here — they live in `cut_offsets`/`cut_neighbors`.
    pub local: Csr,
    /// Owned vertices (as sorted **local** ids) that have at least one
    /// edge crossing the partition.
    pub boundary: Vec<VertexId>,
    /// CSR-style offsets into `cut_neighbors`, one slot per `boundary`
    /// entry (length `boundary.len() + 1`).
    pub cut_offsets: Vec<usize>,
    /// Remote endpoints of cut edges, as **global** vertex ids, grouped
    /// per boundary vertex and sorted within each group.
    pub cut_neighbors: Vec<VertexId>,
}

impl Shard {
    /// Number of vertices this shard owns.
    pub fn n_owned(&self) -> usize {
        self.local.num_vertices()
    }

    /// Global id of local vertex `v`.
    #[inline]
    pub fn global_of(&self, v: VertexId) -> VertexId {
        self.start + v
    }

    /// Global ids of the cut neighbors of the `i`-th boundary vertex.
    #[inline]
    pub fn cut_neighbors_of(&self, i: usize) -> &[VertexId] {
        &self.cut_neighbors[self.cut_offsets[i]..self.cut_offsets[i + 1]]
    }
}

/// A deterministic edge-cut partition of a [`Csr`] into contiguous
/// vertex ranges.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Range bounds: shard `i` owns global vertices
    /// `bounds[i] .. bounds[i + 1]` (length `num_shards() + 1`).
    bounds: Vec<usize>,
    shards: Vec<Shard>,
    /// Set when [`PartitionStrategy::BfsGrown`] relabeled the graph.
    /// `None` means shard-space ids *are* input ids.
    relabel: Option<Relabel>,
}

/// The permutation between input ids and shard-space ids, both ways.
#[derive(Clone, Debug)]
struct Relabel {
    /// `new_of[old]` is the shard-space id of input vertex `old`.
    new_of: Vec<VertexId>,
    /// `old_of[new]` is the input id of shard-space vertex `new`.
    old_of: Vec<VertexId>,
}

impl Partition {
    /// Splits `g` into `num_shards` contiguous ranges balanced by
    /// `degree + 1` weight ([`PartitionStrategy::Contiguous`]).
    /// `num_shards` is clamped to at least 1; when it exceeds the
    /// vertex count the trailing shards own zero vertices (still valid
    /// — they simply have no work).
    pub fn new(g: &Csr, num_shards: usize) -> Self {
        Self::with_strategy(g, num_shards, PartitionStrategy::Contiguous)
    }

    /// Splits `g` into `num_shards` shards using `strategy`. Whatever
    /// the strategy, the resulting shards own contiguous ranges of
    /// *shard-space* ids; [`Partition::unpermute`] maps per-vertex
    /// results back to input order (the identity unless the strategy
    /// relabeled).
    pub fn with_strategy(g: &Csr, num_shards: usize, strategy: PartitionStrategy) -> Self {
        let k = num_shards.max(1);
        let n = g.num_vertices();
        // One shard needs no splitting and must stay bit-identical to
        // the input (the devices=1 invariant), so it always takes the
        // contiguous path, which hands back the input graph verbatim.
        if k == 1 || strategy == PartitionStrategy::Contiguous {
            let bounds = balanced_bounds(g, k);
            let shards = (0..k)
                .map(|i| build_shard(g, i, bounds[i], bounds[i + 1]))
                .collect();
            debug_assert_eq!(bounds.len(), k + 1);
            debug_assert_eq!(bounds[k], n);
            return Partition {
                bounds,
                shards,
                relabel: None,
            };
        }
        let owner = bfs_assign(g, k);
        // Stable relabeling: shard-major, input order within a shard.
        // new ids of shard s occupy [bounds[s], bounds[s+1]).
        let mut counts = vec![0usize; k];
        for &s in &owner {
            counts[s as usize] += 1;
        }
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0usize);
        for s in 0..k {
            bounds.push(bounds[s] + counts[s]);
        }
        let mut cursor = bounds[..k].to_vec();
        let mut new_of = vec![0 as VertexId; n];
        let mut old_of = vec![0 as VertexId; n];
        for old in 0..n {
            let s = owner[old] as usize;
            let new = cursor[s];
            cursor[s] += 1;
            new_of[old] = new as VertexId;
            old_of[new] = old as VertexId;
        }
        // The permuted CSR: vertex `new` carries old vertex
        // `old_of[new]`'s adjacency, renamed and re-sorted.
        let mut row_offsets = Vec::with_capacity(n + 1);
        row_offsets.push(0usize);
        let mut col_indices = Vec::with_capacity(g.num_directed_edges());
        for &old in old_of.iter() {
            let base = col_indices.len();
            col_indices.extend(g.neighbors(old).iter().map(|&u| new_of[u as usize]));
            col_indices[base..].sort_unstable();
            row_offsets.push(col_indices.len());
        }
        let pg = Csr::from_raw(n, row_offsets, col_indices);
        let shards = (0..k)
            .map(|i| build_shard(&pg, i, bounds[i], bounds[i + 1]))
            .collect();
        Partition {
            bounds,
            shards,
            relabel: Some(Relabel { new_of, old_of }),
        }
    }

    /// Maps a shard-space per-vertex result (colors, flags) back to
    /// input vertex order. The identity for strategies that do not
    /// relabel.
    pub fn unpermute<T: Copy>(&self, vals: &[T]) -> Vec<T> {
        match &self.relabel {
            None => vals.to_vec(),
            Some(r) => r.new_of.iter().map(|&nv| vals[nv as usize]).collect(),
        }
    }

    /// Input id of shard-space vertex `v`: the identity for strategies
    /// that do not relabel.
    pub fn input_id(&self, v: VertexId) -> VertexId {
        match &self.relabel {
            None => v,
            Some(r) => r.old_of[v as usize],
        }
    }

    /// Whether the strategy relabeled the graph (shard-space ids differ
    /// from input ids).
    pub fn is_relabeled(&self) -> bool {
        self.relabel.is_some()
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Index of the shard that owns global vertex `v`.
    pub fn shard_of(&self, v: VertexId) -> usize {
        // partition_point returns the first bound > v; the owner is the
        // range right before it. bounds[0] == 0, so the index is >= 1.
        self.bounds.partition_point(|&b| b <= v as usize) - 1
    }

    /// Total boundary vertices across all shards.
    pub fn boundary_vertices(&self) -> usize {
        self.shards.iter().map(|s| s.boundary.len()).sum()
    }

    /// Number of undirected edges crossing the partition.
    pub fn cut_edges(&self) -> usize {
        // Each undirected cut edge appears once in each endpoint's shard.
        self.shards
            .iter()
            .map(|s| s.cut_neighbors.len())
            .sum::<usize>()
            / 2
    }
}

/// Range bounds balancing `Σ (degree + 1)` per shard: shard `i` ends at
/// the first vertex where the weight prefix reaches `(i + 1) / k` of the
/// total, nudged so that no shard is empty while vertices remain.
fn balanced_bounds(g: &Csr, k: usize) -> Vec<usize> {
    let n = g.num_vertices();
    let row_offsets = g.row_offsets();
    // prefix(v) = Σ_{u < v} (degree(u) + 1) = row_offsets[v] + v.
    let prefix = |v: usize| row_offsets[v] + v;
    let total = prefix(n);
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0usize);
    for i in 1..k {
        let target = total * i / k;
        // Binary search for the first v with prefix(v) >= target.
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if prefix(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut b = lo;
        // Keep bounds monotone, and while vertices remain give every
        // shard at least one: bound i stays within [i, n - (k - i)].
        let prev = bounds[i - 1];
        if n >= k {
            b = b.clamp(prev + 1, n - (k - i));
        } else {
            b = b.clamp(prev, n);
        }
        bounds.push(b);
    }
    bounds.push(n);
    bounds
}

/// Multi-source BFS shard assignment: `k` evenly spaced seeds, each
/// growing a FIFO territory, with the *lightest* shard (by claimed
/// `Σ degree + 1` weight) always expanding next. Deterministic by
/// construction — no randomness, ties broken by shard index — and total:
/// disconnected components left over when every frontier drains are
/// re-seeded into the lightest shard until all vertices are claimed.
fn bfs_assign(g: &Csr, k: usize) -> Vec<u32> {
    let n = g.num_vertices();
    const UNCLAIMED: u32 = u32::MAX;
    let mut owner = vec![UNCLAIMED; n];
    let mut frontiers: Vec<VecDeque<VertexId>> = vec![VecDeque::new(); k];
    let mut weight = vec![0u64; k];
    let mut claimed = 0usize;
    // Cursor over input ids for (re)seeding; only moves forward, so the
    // whole assignment is O(n k + m).
    let mut reseed_cursor = 0usize;
    let w = |v: usize| g.degree(v as VertexId) as u64 + 1;
    // Evenly spaced seeds follow the input ordering's locality (mesh
    // generators emit row-major ids); a seed that lands on a claimed
    // vertex (k > n) leaves its shard empty until reseeding needs it.
    for s in 0..k {
        let cand = s * n / k;
        if cand < n && owner[cand] == UNCLAIMED {
            owner[cand] = s as u32;
            weight[s] += w(cand);
            frontiers[s].push_back(cand as VertexId);
            claimed += 1;
        }
    }
    while claimed < n {
        // The lightest shard with work expands next (ties: lowest index).
        let mut best: Option<usize> = None;
        for s in 0..k {
            if !frontiers[s].is_empty() && best.is_none_or(|b| weight[s] < weight[b]) {
                best = Some(s);
            }
        }
        match best {
            Some(s) => {
                let v = frontiers[s].pop_front().expect("non-empty frontier");
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    if owner[u] == UNCLAIMED {
                        owner[u] = s as u32;
                        weight[s] += w(u);
                        frontiers[s].push_back(u as VertexId);
                        claimed += 1;
                    }
                }
            }
            None => {
                // Every frontier drained with vertices left: a component
                // no seed reached. Seed it into the lightest shard.
                while owner[reseed_cursor] != UNCLAIMED {
                    reseed_cursor += 1;
                }
                let s = (0..k).min_by_key(|&s| weight[s]).expect("k >= 1");
                owner[reseed_cursor] = s as u32;
                weight[s] += w(reseed_cursor);
                frontiers[s].push_back(reseed_cursor as VertexId);
                claimed += 1;
            }
        }
    }
    owner
}

fn build_shard(g: &Csr, index: usize, start: usize, end: usize) -> Shard {
    let n_local = end - start;
    let mut row_offsets = Vec::with_capacity(n_local + 1);
    row_offsets.push(0usize);
    let mut col_indices = Vec::new();
    let mut boundary = Vec::new();
    let mut cut_offsets = vec![0usize];
    let mut cut_neighbors = Vec::new();
    for v in start..end {
        let mut cuts_here = 0usize;
        for &u in g.neighbors(v as VertexId) {
            let u = u as usize;
            if (start..end).contains(&u) {
                col_indices.push((u - start) as VertexId);
            } else {
                cut_neighbors.push(u as VertexId);
                cuts_here += 1;
            }
        }
        row_offsets.push(col_indices.len());
        if cuts_here > 0 {
            boundary.push((v - start) as VertexId);
            cut_offsets.push(cut_neighbors.len());
        }
    }
    Shard {
        index,
        start: start as VertexId,
        local: Csr::from_raw(n_local, row_offsets, col_indices),
        boundary,
        cut_offsets,
        cut_neighbors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::generators::path;

    #[test]
    fn one_shard_is_the_whole_graph_with_empty_cut() {
        let g = generators::erdos_renyi(200, 0.04, 42);
        let p = Partition::new(&g, 1);
        assert_eq!(p.num_shards(), 1);
        let s = &p.shards()[0];
        assert_eq!(s.start, 0);
        assert_eq!(
            s.local, g,
            "single shard must carry the input graph verbatim"
        );
        assert!(s.boundary.is_empty());
        assert!(s.cut_neighbors.is_empty());
        assert_eq!(p.cut_edges(), 0);
    }

    #[test]
    fn empty_graph_partitions_cleanly() {
        let g = Csr::empty(0);
        for k in [1, 2, 4] {
            let p = Partition::new(&g, k);
            assert_eq!(p.num_shards(), k);
            for s in p.shards() {
                assert_eq!(s.n_owned(), 0);
                assert!(s.boundary.is_empty());
            }
            assert_eq!(p.cut_edges(), 0);
        }
    }

    #[test]
    fn isolated_vertices_split_evenly_and_have_no_boundary() {
        let g = Csr::empty(10);
        let p = Partition::new(&g, 4);
        let owned: Vec<usize> = p.shards().iter().map(Shard::n_owned).collect();
        assert_eq!(owned.iter().sum::<usize>(), 10);
        assert!(owned.iter().all(|&c| c >= 2), "even-ish split: {owned:?}");
        assert_eq!(p.boundary_vertices(), 0);
    }

    #[test]
    fn single_vertex_shards() {
        let g = path(3);
        let p = Partition::new(&g, 3);
        for (i, s) in p.shards().iter().enumerate() {
            assert_eq!(s.n_owned(), 1, "shard {i} of a 3-vertex path");
            assert_eq!(s.local.num_directed_edges(), 0);
        }
        // Every path edge is cut; middle vertex has two cut neighbors.
        assert_eq!(p.cut_edges(), 2);
        assert_eq!(p.shards()[1].cut_neighbors, vec![0, 2]);
        assert_eq!(p.boundary_vertices(), 3);
    }

    #[test]
    fn more_shards_than_vertices_leaves_trailing_shards_empty() {
        let g = path(2);
        let p = Partition::new(&g, 5);
        assert_eq!(p.num_shards(), 5);
        let owned: Vec<usize> = p.shards().iter().map(Shard::n_owned).collect();
        assert_eq!(owned.iter().sum::<usize>(), 2);
        assert_eq!(p.cut_edges(), 1);
    }

    #[test]
    fn edges_are_conserved_across_the_cut() {
        let g = generators::erdos_renyi(300, 0.035, 7);
        for k in [2, 3, 4, 7] {
            let p = Partition::new(&g, k);
            let local: usize = p
                .shards()
                .iter()
                .map(|s| s.local.num_directed_edges())
                .sum();
            let cut_dir: usize = p.shards().iter().map(|s| s.cut_neighbors.len()).sum();
            assert_eq!(
                local + cut_dir,
                g.num_directed_edges(),
                "k={k}: every directed edge is either local or cut"
            );
        }
    }

    #[test]
    fn shard_of_matches_ranges_and_cut_structure_is_consistent() {
        let g = generators::erdos_renyi(250, 0.035, 3);
        let p = Partition::new(&g, 4);
        for (i, s) in p.shards().iter().enumerate() {
            for v in 0..s.n_owned() as VertexId {
                assert_eq!(p.shard_of(s.global_of(v)), i);
            }
            assert_eq!(s.cut_offsets.len(), s.boundary.len() + 1);
            for (bi, &b) in s.boundary.iter().enumerate() {
                let gv = s.global_of(b);
                for &u in s.cut_neighbors_of(bi) {
                    assert_ne!(p.shard_of(u), i, "cut neighbor must be remote");
                    assert!(g.has_edge(gv, u), "cut edge must exist in the input");
                    // Symmetry: the remote endpoint lists gv as a cut
                    // neighbor too, so it is on its owner's boundary.
                    let owner = &p.shards()[p.shard_of(u)];
                    let lu = u - owner.start;
                    let bj = owner.boundary.binary_search(&lu).expect("remote boundary");
                    assert!(owner.cut_neighbors_of(bj).contains(&gv));
                }
            }
        }
    }

    fn check_partition_consistency(g: &Csr, p: &Partition) {
        // Edge conservation in shard space: every directed edge is
        // either local to a shard or a cut edge.
        let local: usize = p
            .shards()
            .iter()
            .map(|s| s.local.num_directed_edges())
            .sum();
        let cut_dir: usize = p.shards().iter().map(|s| s.cut_neighbors.len()).sum();
        assert_eq!(local + cut_dir, g.num_directed_edges());
        assert_eq!(
            p.shards().iter().map(Shard::n_owned).sum::<usize>(),
            g.num_vertices()
        );
        // Cut symmetry within shard space.
        for (i, s) in p.shards().iter().enumerate() {
            assert_eq!(s.cut_offsets.len(), s.boundary.len() + 1);
            for (bi, &b) in s.boundary.iter().enumerate() {
                let gv = s.global_of(b);
                for &u in s.cut_neighbors_of(bi) {
                    assert_ne!(p.shard_of(u), i, "cut neighbor must be remote");
                    let owner = &p.shards()[p.shard_of(u)];
                    let lu = u - owner.start;
                    let bj = owner.boundary.binary_search(&lu).expect("remote boundary");
                    assert!(owner.cut_neighbors_of(bj).contains(&gv));
                }
            }
        }
    }

    #[test]
    fn bfs_grown_conserves_edges_and_structure() {
        let g = generators::erdos_renyi(300, 0.035, 7);
        for k in [2, 3, 4, 8] {
            let p = Partition::with_strategy(&g, k, PartitionStrategy::BfsGrown);
            assert!(p.is_relabeled());
            check_partition_consistency(&g, &p);
        }
    }

    #[test]
    fn bfs_grown_unpermute_round_trips_vertex_data() {
        let g = generators::erdos_renyi(200, 0.04, 13);
        let p = Partition::with_strategy(&g, 4, PartitionStrategy::BfsGrown);
        // Tag shard-space vertex `new` with its own id; after unpermute,
        // input vertex `old` must carry `new_of[old]` — and degrees must
        // line up between the two spaces.
        let tags: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let back = p.unpermute(&tags);
        let mut seen = vec![false; g.num_vertices()];
        for (old, &new) in back.iter().enumerate() {
            assert!(!seen[new as usize], "permutation must be a bijection");
            seen[new as usize] = true;
            assert_eq!(p.input_id(new), old as VertexId, "input_id inverts it");
            let s = p.shard_of(new);
            let shard = &p.shards()[s];
            let local = new - shard.start;
            let deg_new = shard.local.degree(local)
                + shard
                    .boundary
                    .binary_search(&local)
                    .map(|bi| shard.cut_neighbors_of(bi).len())
                    .unwrap_or(0);
            assert_eq!(deg_new, g.degree(old as VertexId), "degree preserved");
        }
    }

    #[test]
    fn bfs_grown_balances_degree_weight() {
        let g = generators::erdos_renyi(600, 0.02, 5);
        for k in [2, 4, 8] {
            let p = Partition::with_strategy(&g, k, PartitionStrategy::BfsGrown);
            let weights: Vec<usize> = p
                .shards()
                .iter()
                .map(|s| s.local.num_directed_edges() + s.cut_neighbors.len() + s.n_owned())
                .collect();
            let total: usize = weights.iter().sum();
            let cap = 2 * total / k + g.max_degree() + 1;
            for (i, &w) in weights.iter().enumerate() {
                assert!(w <= cap, "k={k} shard {i} weight {w} exceeds cap {cap}");
            }
        }
    }

    #[test]
    fn bfs_grown_shrinks_the_cut_on_a_path() {
        // On a path graph, contiguous input-order ranges already cut
        // minimally — but shuffle the labels and contiguous ranges cut
        // almost everything while BFS growth recovers locality.
        let g = path(400);
        let contiguous = Partition::with_strategy(&g, 4, PartitionStrategy::Contiguous);
        let bfs = Partition::with_strategy(&g, 4, PartitionStrategy::BfsGrown);
        assert!(
            bfs.cut_edges() <= contiguous.cut_edges() + 3,
            "bfs {} vs contiguous {}",
            bfs.cut_edges(),
            contiguous.cut_edges()
        );
        check_partition_consistency(&g, &bfs);
    }

    #[test]
    fn bfs_grown_handles_disconnected_graphs() {
        // Two components: a path and isolated vertices. Everything must
        // be claimed, including vertices no BFS can reach.
        let p6 = path(6);
        let mut row_offsets = p6.row_offsets().to_vec();
        let last = *row_offsets.last().unwrap();
        row_offsets.extend([last; 5]); // 5 isolated vertices appended
        let g = Csr::from_raw(11, row_offsets, p6.col_indices().to_vec());
        for k in [2, 3] {
            let p = Partition::with_strategy(&g, k, PartitionStrategy::BfsGrown);
            check_partition_consistency(&g, &p);
        }
    }

    #[test]
    fn bfs_grown_with_more_shards_than_vertices() {
        let g = path(2);
        let p = Partition::with_strategy(&g, 5, PartitionStrategy::BfsGrown);
        assert_eq!(p.num_shards(), 5);
        assert_eq!(
            p.shards().iter().map(Shard::n_owned).sum::<usize>(),
            2,
            "every vertex owned exactly once"
        );
        check_partition_consistency(&g, &p);
    }

    #[test]
    fn bfs_grown_empty_graph_and_isolated_vertices() {
        let p = Partition::with_strategy(&Csr::empty(0), 4, PartitionStrategy::BfsGrown);
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.cut_edges(), 0);
        let g = Csr::empty(10);
        let p = Partition::with_strategy(&g, 4, PartitionStrategy::BfsGrown);
        let owned: Vec<usize> = p.shards().iter().map(Shard::n_owned).collect();
        assert_eq!(owned.iter().sum::<usize>(), 10);
        assert_eq!(p.boundary_vertices(), 0);
    }

    #[test]
    fn bfs_grown_single_shard_is_verbatim() {
        let g = generators::erdos_renyi(100, 0.05, 9);
        let p = Partition::with_strategy(&g, 1, PartitionStrategy::BfsGrown);
        assert!(!p.is_relabeled(), "one shard must not relabel");
        assert_eq!(p.shards()[0].local, g);
    }

    #[test]
    fn bfs_grown_is_deterministic() {
        let g = generators::erdos_renyi(400, 0.025, 11);
        let a = Partition::with_strategy(&g, 4, PartitionStrategy::BfsGrown);
        let b = Partition::with_strategy(&g, 4, PartitionStrategy::BfsGrown);
        for (sa, sb) in a.shards().iter().zip(b.shards()) {
            assert_eq!(sa.start, sb.start);
            assert_eq!(sa.local, sb.local);
            assert_eq!(sa.boundary, sb.boundary);
            assert_eq!(sa.cut_neighbors, sb.cut_neighbors);
        }
        let tags: Vec<u32> = (0..400u32).collect();
        assert_eq!(a.unpermute(&tags), b.unpermute(&tags));
    }

    #[test]
    fn partition_is_deterministic() {
        let g = generators::erdos_renyi(400, 0.025, 11);
        let a = Partition::new(&g, 4);
        let b = Partition::new(&g, 4);
        for (sa, sb) in a.shards().iter().zip(b.shards()) {
            assert_eq!(sa.start, sb.start);
            assert_eq!(sa.local, sb.local);
            assert_eq!(sa.boundary, sb.boundary);
            assert_eq!(sa.cut_neighbors, sb.cut_neighbors);
        }
    }
}
