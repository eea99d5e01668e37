//! Reusable speculate-recolor frontier repair.
//!
//! This module factors the conflict-repair machinery out of the
//! multi-device boundary loop so a second caller — the incremental
//! recoloring path behind `gc-net`'s `MutateEdges` verb — does not have
//! to copy it. Two layers:
//!
//! * [`repair_frontier`] — the **single-device** bounded
//!   speculate-recolor loop. Given a coloring that is proper everywhere
//!   except possibly on edges incident to a small *frontier* of suspect
//!   vertices (e.g. the endpoints of freshly inserted edges), it runs
//!   rounds over compacted slot lists on one device, with a rule of
//!   its own: detect monochromatic edges among the frontier, flag the
//!   higher-id endpoint of each as the loser, and recolor the losers
//!   that are locally maximal among losers — an independent set, so a
//!   round never creates a new conflict and the globally largest loser
//!   always acts, which makes the conflict count strictly decrease.
//!   (The cross-device resolver has no loser exchange: every
//!   top-ranked endpoint recolors at once, and changers that collide
//!   stay in its frontier.)
//! * [`greedy_repair_host`] — the deterministic host-side pass that
//!   finishes this loop after its round cap. The multi-device resolver
//!   in [`crate::run_sharded`] runs the same sweep after its tail cutoff
//!   or round cap, visiting only its surviving frontier.
//!
//! Every recolor takes the smallest free color of its neighborhood,
//! [`gc_core::reduce::mex`]: recoloring a vertex to the mex of its
//! neighborhood can never create a new conflict.
//!
//! The frontier contract: **both** endpoints of every possibly-improper
//! edge must be in the frontier. Edge inserts satisfy this by
//! construction (both endpoints are touched); the detect kernel then
//! only ever needs to flag vertices it scanned.
//!
//! ```
//! use gc_graph::GraphBuilder;
//! use gc_core::verify::is_proper;
//! use gc_shard::repair::repair_frontier;
//! use gc_vgpu::Device;
//!
//! // A path 0-1-2 colored properly, then edge (0, 2) appears.
//! let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
//! let mut colors = vec![1, 2, 1]; // proper before (0, 2) existed
//! let dev = Device::k40c();
//! let outcome = repair_frontier(&dev, &g, &mut colors, &[0, 2], 64);
//! assert!(outcome.clean);
//! assert!(is_proper(&g, &colors).is_ok());
//! ```

use gc_core::reduce::{mex, Forbidden};
use gc_graph::{Csr, VertexId};
use gc_vgpu::{Device, DeviceBuffer};

/// What a [`repair_frontier`] run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Rounds that found (and recolored) conflicts.
    pub rounds: u32,
    /// Vertices recolored across all rounds.
    pub recolored: u32,
    /// Conflicting vertices found in the first detect pass — the real
    /// dirty set, after the frontier's false positives are filtered.
    pub initial_conflicts: u32,
    /// Whether the loop converged under the round cap. When `false`, the
    /// deterministic host-side [`greedy_repair_host`] pass fixed the
    /// remainder and the coloring is still proper.
    pub clean: bool,
}

/// Deterministic host-side repair: one ascending sweep recoloring any
/// vertex that clashes with a smaller-id neighbor. Vertices processed
/// earlier never change afterwards, so the sweep leaves the coloring
/// proper. Finishes [`repair_frontier`] after its round cap; the
/// multi-device resolver runs the same sweep over its surviving
/// frontier only.
pub fn greedy_repair_host(g: &Csr, colors: &mut [u32]) {
    greedy_sweep(g, colors, 0..g.num_vertices() as VertexId);
}

/// [`greedy_repair_host`] visiting only `candidates`, which must be
/// strictly ascending. The result is the full sweep's whenever
/// `candidates` holds both endpoints of every monochromatic edge: any
/// other vertex has no same-colored neighbor, and gains none before its
/// turn, because every earlier recolor takes the mex of its whole
/// neighborhood and so avoids that vertex's color. The full sweep
/// therefore changes only candidates, and sees the same colors at each
/// of them.
pub(crate) fn greedy_repair_at(g: &Csr, colors: &mut [u32], candidates: &[VertexId]) {
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
    greedy_sweep(g, colors, candidates.iter().copied());
}

/// The body of both sweeps: visits `order` (ascending) and recolors each
/// vertex that shares its color with a smaller-id neighbor.
fn greedy_sweep(g: &Csr, colors: &mut [u32], order: impl IntoIterator<Item = VertexId>) {
    for v in order {
        let clash = g
            .neighbors(v)
            .iter()
            .any(|&u| u < v && colors[u as usize] == colors[v as usize]);
        if clash {
            let mut forbidden: Vec<u32> =
                g.neighbors(v).iter().map(|&u| colors[u as usize]).collect();
            colors[v as usize] = mex(&mut forbidden);
        }
    }
}

/// Runs the bounded single-device speculate-recolor loop over `frontier`,
/// updating `colors` in place and metering every kernel, transfer, and
/// flag download on `dev` (stacking on whatever the device clock already
/// holds).
///
/// `colors` must be proper on every edge with **no** endpoint in
/// `frontier`; on return it is proper everywhere. Rounds work on
/// compacted slot lists: round 1 scans the whole frontier, later rounds
/// rescan only last round's losers.
///
/// The loop only ever reads the rows of frontier vertices and the colors
/// of the frontier and its neighbors: scanned vertices are frontier
/// vertices, and losers are scanned vertices. So the device gets just
/// that neighborhood — its rows and colors, renumbered in ascending
/// global id — and transfers scale with the frontier's degree sum, not
/// with the graph.
pub fn repair_frontier(
    dev: &Device,
    g: &Csr,
    colors: &mut [u32],
    frontier: &[VertexId],
    max_rounds: u32,
) -> RepairOutcome {
    let n = g.num_vertices();
    assert_eq!(colors.len(), n, "coloring length must match the graph");
    let mut outcome = RepairOutcome {
        clean: true,
        ..RepairOutcome::default()
    };
    if frontier.is_empty() || n == 0 {
        return outcome;
    }

    let mut span = gc_telemetry::span("repair_frontier");
    span.attr("frontier", frontier.len());

    let hood = Neighborhood::new(g, frontier);
    let d_row_off = dev.upload(&hood.row_offsets);
    let d_cols = dev.upload(&hood.cols);
    let local_colors: Vec<u32> = hood.ids.iter().map(|&v| colors[v as usize]).collect();
    let d_colors = dev.upload(&local_colors);
    let d_loser: DeviceBuffer<u32> = DeviceBuffer::zeroed(hood.ids.len());

    // Suspect vertices this round, as local ids. Round 1: the caller's
    // frontier; round k: round k-1's losers (every vertex whose loser
    // flag could be stale is rescanned, so flags never go stale).
    let mut scan: Vec<u32> = frontier.iter().map(|&v| local_id(&hood.ids, v)).collect();
    let mut clean = false;

    for round in 1..=max_rounds {
        let slots = dev.upload(&scan);
        let flags_out: DeviceBuffer<u32> = DeviceBuffer::zeroed(scan.len());
        // Detect: a scanned vertex loses iff it shares its color with a
        // smaller-id neighbor (the higher-id endpoint of a monochromatic
        // edge must move; the lower-id endpoint stays put). Local ids
        // ascend with global ids, so `u < v` is the global rule.
        dev.launch("repair::detect_conflicts", scan.len(), |t| {
            let v = t.read(&slots, t.tid());
            let my = t.read(&d_colors, v as usize);
            let lo = t.read(&d_row_off, v as usize) as usize;
            let hi = t.read(&d_row_off, v as usize + 1) as usize;
            let mut lose = 0u32;
            for e in lo..hi {
                let u = t.read(&d_cols, e);
                if my != 0 && u < v && t.read(&d_colors, u as usize) == my {
                    lose = 1;
                }
            }
            t.write(&d_loser, v as usize, lose);
            t.write(&flags_out, t.tid(), lose);
        });
        // Metered flag download builds the loser frontier host-side, the
        // same host-orchestration pattern as the colorers' termination
        // checks.
        let flags = dev.download(&flags_out);
        let losers: Vec<u32> = scan
            .iter()
            .zip(&flags)
            .filter(|&(_, &f)| f != 0)
            .map(|(&v, _)| v)
            .collect();
        if round == 1 {
            outcome.initial_conflicts = losers.len() as u32;
        }
        if losers.is_empty() {
            clean = true;
            break;
        }
        outcome.rounds = round;

        // Recolor: a loser acts only when no larger-id neighbor is also
        // a loser — an independent set, so no new conflicts — taking the
        // smallest color absent from its whole neighborhood.
        let loser_slots = dev.upload(&losers);
        let acted: DeviceBuffer<u32> = DeviceBuffer::zeroed(losers.len());
        dev.launch("repair::recolor", losers.len(), |t| {
            let v = t.read(&loser_slots, t.tid());
            let lo = t.read(&d_row_off, v as usize) as usize;
            let hi = t.read(&d_row_off, v as usize + 1) as usize;
            for e in lo..hi {
                let u = t.read(&d_cols, e);
                if u > v && t.read(&d_loser, u as usize) != 0 {
                    return;
                }
            }
            let mut forbidden = Forbidden::new();
            for e in lo..hi {
                let u = t.read(&d_cols, e);
                forbidden.push(t.read(&d_colors, u as usize));
            }
            t.write(&d_colors, v as usize, forbidden.mex());
            t.write(&acted, t.tid(), 1);
        });
        outcome.recolored += dev.download(&acted).iter().sum::<u32>();
        scan = losers;
    }

    // Merge repaired colors back (metered device→host download).
    for (&v, c) in hood.ids.iter().zip(dev.download(&d_colors)) {
        colors[v as usize] = c;
    }
    if !clean {
        greedy_repair_host(g, colors);
    }
    outcome.clean = clean;

    if span.is_recording() {
        span.attr("rounds", outcome.rounds);
        span.attr("recolored", outcome.recolored);
        span.attr("clean", outcome.clean);
    }
    outcome
}

/// The part of a graph [`repair_frontier`] reads: the frontier and its
/// neighbors, numbered `0..` in ascending global id, with a CSR row for
/// each frontier vertex (the rows of the others stay empty: no kernel
/// reads them).
struct Neighborhood {
    /// Global id of each local vertex, ascending.
    ids: Vec<VertexId>,
    row_offsets: Vec<u32>,
    /// Neighbors of the frontier rows, as local ids.
    cols: Vec<u32>,
}

impl Neighborhood {
    fn new(g: &Csr, frontier: &[VertexId]) -> Self {
        let mut rows = frontier.to_vec();
        rows.sort_unstable();
        rows.dedup();
        let mut ids: Vec<VertexId> = rows
            .iter()
            .flat_map(|&v| std::iter::once(v).chain(g.neighbors(v).iter().copied()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut rows = rows.into_iter().peekable();
        let mut row_offsets = Vec::with_capacity(ids.len() + 1);
        row_offsets.push(0);
        let mut cols = Vec::new();
        for &v in &ids {
            if rows.next_if_eq(&v).is_some() {
                cols.extend(g.neighbors(v).iter().map(|&u| local_id(&ids, u)));
            }
            row_offsets.push(cols.len() as u32);
        }
        Neighborhood {
            ids,
            row_offsets,
            cols,
        }
    }
}

/// Position of `v` in the ascending id list `ids`, which must hold it.
fn local_id(ids: &[VertexId], v: VertexId) -> u32 {
    ids.binary_search(&v)
        .expect("vertex is in the frontier's neighborhood") as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_core::runner::colorer_by_name;
    use gc_core::verify::is_proper;
    use gc_graph::generators::erdos_renyi;
    use gc_graph::{apply_edge_delta, EdgeDelta, GraphBuilder};

    /// The recolor rule the repair loop and the host fallback apply.
    #[test]
    fn mex_takes_smallest_free_color() {
        assert_eq!(mex(&mut []), 1);
        assert_eq!(mex(&mut [2, 3]), 1);
        assert_eq!(mex(&mut [1, 2, 4]), 3);
        assert_eq!(mex(&mut [1, 1, 2, 2]), 3);
        assert_eq!(mex(&mut [3, 1, 2]), 4);
        assert_eq!(mex(&mut [0, 1, 2]), 3, "0 (uncolored) is never assigned");
    }

    /// The loop as it ran before it was narrowed to the frontier's
    /// neighborhood: whole CSR and coloring on the device, global ids.
    /// The reference the neighborhood loop must match exactly.
    fn repair_frontier_full_upload(
        dev: &Device,
        g: &Csr,
        colors: &mut [u32],
        frontier: &[VertexId],
        max_rounds: u32,
    ) -> RepairOutcome {
        let n = g.num_vertices();
        let mut outcome = RepairOutcome {
            clean: true,
            ..RepairOutcome::default()
        };
        if frontier.is_empty() || n == 0 {
            return outcome;
        }
        let row_off: Vec<u32> = g.row_offsets().iter().map(|&o| o as u32).collect();
        let d_row_off = dev.upload(&row_off);
        let d_cols = dev.upload(g.col_indices());
        let d_colors = dev.upload(colors);
        let d_loser: DeviceBuffer<u32> = DeviceBuffer::zeroed(n);
        let mut scan: Vec<u32> = frontier.to_vec();
        let mut clean = false;
        for round in 1..=max_rounds {
            let slots = dev.upload(&scan);
            let flags_out: DeviceBuffer<u32> = DeviceBuffer::zeroed(scan.len());
            dev.launch("repair::detect_conflicts", scan.len(), |t| {
                let v = t.read(&slots, t.tid());
                let my = t.read(&d_colors, v as usize);
                let lo = t.read(&d_row_off, v as usize) as usize;
                let hi = t.read(&d_row_off, v as usize + 1) as usize;
                let mut lose = 0u32;
                for e in lo..hi {
                    let u = t.read(&d_cols, e);
                    if my != 0 && u < v && t.read(&d_colors, u as usize) == my {
                        lose = 1;
                    }
                }
                t.write(&d_loser, v as usize, lose);
                t.write(&flags_out, t.tid(), lose);
            });
            let flags = dev.download(&flags_out);
            let losers: Vec<u32> = scan
                .iter()
                .zip(&flags)
                .filter(|&(_, &f)| f != 0)
                .map(|(&v, _)| v)
                .collect();
            if round == 1 {
                outcome.initial_conflicts = losers.len() as u32;
            }
            if losers.is_empty() {
                clean = true;
                break;
            }
            outcome.rounds = round;
            let loser_slots = dev.upload(&losers);
            let acted: DeviceBuffer<u32> = DeviceBuffer::zeroed(losers.len());
            dev.launch("repair::recolor", losers.len(), |t| {
                let v = t.read(&loser_slots, t.tid());
                let lo = t.read(&d_row_off, v as usize) as usize;
                let hi = t.read(&d_row_off, v as usize + 1) as usize;
                for e in lo..hi {
                    let u = t.read(&d_cols, e);
                    if u > v && t.read(&d_loser, u as usize) != 0 {
                        return;
                    }
                }
                let mut forbidden: Vec<u32> = Vec::with_capacity(hi - lo);
                for e in lo..hi {
                    let u = t.read(&d_cols, e);
                    forbidden.push(t.read(&d_colors, u as usize));
                }
                let c = mex(&mut forbidden);
                t.write(&d_colors, v as usize, c);
                t.write(&acted, t.tid(), 1);
            });
            outcome.recolored += dev.download(&acted).iter().sum::<u32>();
            scan = losers;
        }
        colors.copy_from_slice(&dev.download(&d_colors));
        if !clean {
            greedy_repair_host(g, colors);
        }
        outcome.clean = clean;
        outcome
    }

    /// SplitMix64 step, for the seeded cases below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// On seeded random graphs, colorings and deltas that insert edges
    /// between same-colored vertices, the neighborhood loop matches the
    /// full-upload loop in colors, outcome, thread executions and
    /// launches, and moves fewer bytes host→device. The cases cover
    /// cascades, unsorted and repeated frontiers, and round caps low
    /// enough to hand off to the host pass.
    #[test]
    fn neighborhood_repair_matches_full_upload() {
        let mut with_conflicts = 0;
        let mut handed_off = 0;
        for seed in 0..240u64 {
            let mut rng = seed;
            let n = 20 + (next(&mut rng) % 180) as usize;
            let g = erdos_renyi(n, 0.02 + (next(&mut rng) % 8) as f64 / 100.0, seed);
            // A proper coloring with few colors, so conflicts are easy
            // to insert.
            let greedy = colorer_by_name("CPU/Color_Greedy").unwrap();
            let colors = greedy.run(&g, seed).coloring.as_slice().to_vec();
            let mut insert = Vec::new();
            for _ in 0..1 + next(&mut rng) % 12 {
                let u = (next(&mut rng) % n as u64) as u32;
                let same: Vec<u32> = (0..n as u32)
                    .filter(|&v| v != u && colors[v as usize] == colors[u as usize])
                    .collect();
                if let Some(&v) = same.get((next(&mut rng) % same.len().max(1) as u64) as usize) {
                    insert.push((u, v));
                }
            }
            let delta = EdgeDelta {
                insert,
                delete: vec![],
            };
            let out = apply_edge_delta(&g, &delta).unwrap();
            let mut frontier = out.touched.clone();
            if seed % 3 == 1 {
                frontier.reverse();
                frontier.extend_from_slice(&out.touched[..out.touched.len() / 2]);
            }
            let max_rounds = [1, 2, 64][(seed % 3) as usize];

            let (dev_ref, dev) = (Device::k40c(), Device::k40c());
            let mut want = colors.clone();
            let expected =
                repair_frontier_full_upload(&dev_ref, &out.graph, &mut want, &frontier, max_rounds);
            let mut got = colors.clone();
            let outcome = repair_frontier(&dev, &out.graph, &mut got, &frontier, max_rounds);
            assert_eq!(got, want, "seed {seed}: colors");
            assert_eq!(outcome, expected, "seed {seed}: outcome");
            let (p_ref, p) = (dev_ref.profile(), dev.profile());
            assert_eq!(p.thread_executions, p_ref.thread_executions, "seed {seed}");
            assert_eq!(p.launches, p_ref.launches, "seed {seed}");
            if !frontier.is_empty() {
                assert!(p.memcpy_bytes < p_ref.memcpy_bytes, "seed {seed}: bytes");
            }
            assert!(is_proper(&out.graph, &got).is_ok());
            with_conflicts += usize::from(outcome.initial_conflicts > 0);
            handed_off += usize::from(!outcome.clean);
        }
        assert!(
            with_conflicts >= 200,
            "{with_conflicts} cases had conflicts"
        );
        assert!(handed_off > 0, "no case reached the host hand-off");
    }

    #[test]
    fn greedy_repair_host_fixes_any_coloring() {
        let g = erdos_renyi(50, 0.1, 9);
        let mut colors = vec![1u32; 50]; // maximally broken
        greedy_repair_host(&g, &mut colors);
        assert!(is_proper(&g, &colors).is_ok());
    }

    #[test]
    fn empty_frontier_is_a_noop() {
        let g = erdos_renyi(20, 0.1, 2);
        let colorer = colorer_by_name("Gunrock/Color_IS").unwrap();
        let base = colorer.run(&g, 42);
        let mut colors = base.coloring.as_slice().to_vec();
        let dev = Device::k40c();
        let out = repair_frontier(&dev, &g, &mut colors, &[], 64);
        assert!(out.clean);
        assert_eq!(out.rounds, 0);
        assert_eq!(colors, base.coloring.as_slice());
        assert_eq!(dev.profile().launches, 0, "no frontier, no kernels");
    }

    #[test]
    fn repairs_an_inserted_conflict_edge() {
        // Two vertices forced to the same color by construction.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
            .build();
        let mut colors = vec![1, 2, 2, 2]; // edges (1,2) and (2,3) clash
        let dev = Device::k40c();
        let out = repair_frontier(&dev, &g, &mut colors, &[1, 2, 3], 64);
        assert!(out.clean);
        assert!(out.rounds >= 1);
        assert!(out.recolored >= 1);
        assert!(is_proper(&g, &colors).is_ok());
    }

    #[test]
    fn untouched_vertices_keep_their_colors() {
        let g = erdos_renyi(80, 0.06, 5);
        let colorer = colorer_by_name("Naumov/Color_JPL").unwrap();
        let base = colorer.run(&g, 7);
        let delta = EdgeDelta {
            insert: vec![(0, 40), (1, 41), (2, 42)],
            delete: vec![],
        };
        let out = apply_edge_delta(&g, &delta).unwrap();
        let mut colors = base.coloring.as_slice().to_vec();
        let dev = Device::k40c();
        let rep = repair_frontier(&dev, &out.graph, &mut colors, &out.touched, 64);
        assert!(rep.clean);
        assert!(is_proper(&out.graph, &colors).is_ok());
        // Only frontier vertices may have moved.
        for (v, &c) in colors.iter().enumerate().take(80) {
            if !out.touched.contains(&(v as u32)) {
                assert_eq!(
                    c,
                    base.coloring.as_slice()[v],
                    "vertex {v} was not on the frontier but changed color"
                );
            }
        }
    }

    #[test]
    fn repair_meters_on_the_device() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
        let mut colors = vec![1, 1, 2];
        let dev = Device::k40c();
        let before = dev.profile().thread_executions;
        let out = repair_frontier(&dev, &g, &mut colors, &[0, 1], 64);
        assert!(out.clean);
        assert!(is_proper(&g, &colors).is_ok());
        let p = dev.profile();
        assert!(p.thread_executions > before);
        assert!(p.launches >= 2, "detect + recolor kernels must be billed");
        assert!(dev.elapsed_ms() > 0.0);
    }
}
