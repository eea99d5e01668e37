//! `GraphBLAST/Color_IS` — Algorithm 2: Luby-style independent-set
//! coloring in linear algebra.
//!
//! A direct transcription of the paper's Algorithm 2 onto the GraphBLAS
//! API: each iteration computes every vertex's maximum neighbor weight
//! with a `(max, ×)` `vxm`, forms the frontier of vertices beating their
//! neighborhood with an `eWiseAdd(GT)`, stops when a `reduce(+)` says the
//! frontier is empty, and otherwise colors the frontier and zeroes its
//! weights with two masked `assign`s.
//!
//! The default path keeps a compacted [`Frontier`] of still-uncolored
//! vertices and runs the list-restricted ops over it, so each round's
//! work shrinks with the candidate set; the new-member contraction's
//! output length doubles as the empty-frontier test, replacing the
//! full-width `reduce`. [`run_on_full`] preserves the paper's full-width
//! transcription for comparison (every op spans all `n` rows every
//! round).

use gc_graph::Csr;
use gc_graphblas::{ops, Descriptor, Matrix, MaxTimes, Vector};
use gc_vgpu::rng::vertex_weight_i64;
use gc_vgpu::{Device, Frontier};

use crate::color::ColoringResult;
use crate::reduce::Forbidden;

/// Safety cap on colors (the paper's `for color = 1..n`).
const MAX_COLORS: u32 = 100_000;

/// Runs Algorithm 2 on a fresh K40c-model device.
pub fn gblas_is(g: &Csr, seed: u64) -> ColoringResult {
    run_on(&Device::k40c(), g, seed, false)
}

/// Runs the short-cutting variant of Algorithm 2 on a fresh K40c-model
/// device.
pub fn gblas_is_sc(g: &Csr, seed: u64) -> ColoringResult {
    run_on(&Device::k40c(), g, seed, true)
}

/// Runs Algorithm 2 on the provided device with the compacted
/// active-vertex frontier (the default path).
///
/// The whole per-round pipeline is two fused kernels, captured once as
/// a [`gc_vgpu::LaunchGraph`] and replayed each round so the fixed
/// launch/sync overhead is paid once per round instead of once per op:
///
/// 1. `vxm_apply_list` computes each active vertex's max live neighbor
///    weight and the "beats its neighborhood" test in one kernel (the
///    old `vxm_list` + `ewise_add_list` pair, minus the intermediate
///    `max` vector);
/// 2. `apply_where_compact` colors the winners, zeroes their weights,
///    and contracts them out of the active frontier in one fused
///    compaction (the old two assigns + contraction).
///
/// The max at a listed row only combines neighbors with live weights —
/// exactly what the full-width masked product computes there — so
/// colorings are bit-identical to [`run_on_full`]. The surviving-count
/// delta doubles as the old `reduce(+)` frontier-size/empty test.
///
/// With `short_cutting`, each winner first-fits into the lowest color
/// absent from its neighborhood instead of taking the round index.
/// Winner sets are identical — the select op is untouched and the weight
/// kill is the same — so iteration counts match. Each round's winner set
/// is an independent set (tie-free weights), so no winner reads another
/// winner's fresh color: the mex inputs are stable within the round
/// whatever order the compaction runs the winners in, and the color
/// count can only end at or below the round-indexed variant's.
pub fn run_on(dev: &Device, g: &Csr, seed: u64, short_cutting: bool) -> ColoringResult {
    use std::cell::{Cell, RefCell};

    let _pool = gc_vgpu::pool::lease();
    let n = g.num_vertices();
    let a = Matrix::from_graph(dev, g);
    let c = Vector::<i64>::new(n);
    let weight = Vector::<i64>::new(n);
    let frontier = Vector::<i64>::new(n);
    dev.reset();
    let desc = Descriptor::null();

    // Initialize colors to 0.
    ops::assign_scalar(dev, &c, None, 0, desc);
    // Assign random weight to each vertex (tie-free, strictly positive).
    ops::apply_indexed(
        dev,
        &weight,
        None,
        |i, _| vertex_weight_i64(seed, i as u32),
        &weight,
        desc,
    );

    let (graph, retire) = if short_cutting {
        ("grb::is_sc_round", "grb::is_sc_active")
    } else {
        ("grb::is_round", "grb::is_active")
    };
    let active = RefCell::new(Frontier::all(n));
    let color = Cell::new(0i64);
    let retired = Cell::new(0usize);
    // Capture once; the frontier length and the round's color are
    // resolved at replay time (the contraction output swaps into
    // `active` between replays), so every round replays the same graph.
    let pipeline = dev.capture(graph, || {
        let cur = active.borrow();
        // Max live-neighbor weight and the GT test, fused. Under the
        // dense encoding the zero weight of a colored vertex is the
        // "no value" sentinel, so the test also requires a live weight.
        ops::vxm_apply_list(
            dev,
            &frontier,
            &MaxTimes,
            |w, m| (w != 0 && w > m) as i64,
            &weight,
            &a,
            &cur,
        );
        // Color the new Luby members — the round index, or the mex over
        // the neighborhood's committed colors — kill their weights, and
        // contract them out of the candidate frontier, all in one
        // compaction.
        let round_color = color.get();
        let next = ops::apply_where_compact(
            dev,
            retire,
            &frontier,
            &c,
            |t, i| {
                if !short_cutting {
                    return round_color;
                }
                let mut forbidden = Forbidden::new();
                for j in a.cols_seq(t, i) {
                    let cj = c.read(t, j as usize);
                    if cj != 0 {
                        forbidden.push(cj as u32);
                    }
                }
                forbidden.mex() as i64
            },
            &[(&weight, 0)],
            &cur,
        );
        retired.set(cur.len() - next.len());
        drop(cur);
        *active.borrow_mut() = next;
    });

    let mut iterations = 0u32;
    let mut finished = false;
    for round_color in 1..=(MAX_COLORS as i64) {
        iterations += 1;
        // One span per outer (color) iteration: kernel events emitted by
        // the device below nest inside it on the tracing thread.
        let mut iter_span = gc_telemetry::span("iteration");
        let iter_model0 = if iter_span.is_recording() {
            dev.elapsed_ms()
        } else {
            0.0
        };
        iter_span.attr("iteration", iterations - 1);
        color.set(round_color);
        dev.replay(&pipeline);
        if iter_span.is_recording() {
            iter_span.attr("frontier_size", retired.get() as i64);
            iter_span.set_model_range(iter_model0, dev.elapsed_ms());
        }
        // The host convergence branch consumes the surviving count — the
        // scalar readback that replaced the full-width `reduce(+)`.
        active.borrow().read_len(dev);
        if retired.get() == 0 {
            finished = true;
            break;
        }
    }

    assert!(finished, "IS coloring exceeded the {MAX_COLORS}-round cap");
    let colors: Vec<u32> = c.to_vec().into_iter().map(|x| x as u32).collect();
    ColoringResult::from_device(dev, colors, iterations)
}

/// Runs Algorithm 2 full-width, as the paper transcribes it: every op
/// spans all `n` rows every round and a full-width `reduce(+)` tests
/// frontier emptiness. Kept as the pre-compaction baseline for the
/// benchmark harness and the equivalence tests.
pub fn run_on_full(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    let n = g.num_vertices();
    let a = Matrix::from_graph(dev, g);
    let c = Vector::<i64>::new(n);
    let weight = Vector::<i64>::new(n);
    let max = Vector::<i64>::new(n);
    let frontier = Vector::<i64>::new(n);
    dev.reset();
    let desc = Descriptor::null();

    ops::assign_scalar(dev, &c, None, 0, desc);
    ops::apply_indexed(
        dev,
        &weight,
        None,
        |i, _| vertex_weight_i64(seed, i as u32),
        &weight,
        desc,
    );

    let mut iterations = 0u32;
    let mut finished = false;
    for color in 1..=(MAX_COLORS as i64) {
        iterations += 1;
        let mut iter_span = gc_telemetry::span("iteration");
        let iter_model0 = if iter_span.is_recording() {
            dev.elapsed_ms()
        } else {
            0.0
        };
        iter_span.attr("iteration", iterations - 1);
        // Find max of neighbors.
        ops::vxm(dev, &max, None, &MaxTimes, &weight, &a, desc);
        // Find all largest uncolored nodes.
        ops::ewise_add(
            dev,
            &frontier,
            None,
            |w, m| (w != 0 && w > m) as i64,
            &weight,
            &max,
            desc,
        );
        // Stop when the frontier is empty.
        let succ = ops::reduce(dev, 0i64, |x, y| x + y, &frontier);
        if iter_span.is_recording() {
            iter_span.attr("frontier_size", succ);
            iter_span.attr("colors_so_far", color);
            iter_span.set_model_range(iter_model0, dev.elapsed_ms());
        }
        if succ == 0 {
            finished = true;
            break;
        }
        // Assign new color; remove colored nodes from the candidate list.
        ops::assign_scalar(dev, &c, Some(&frontier), color, desc);
        ops::assign_scalar(dev, &weight, Some(&frontier), 0, desc);
    }

    assert!(finished, "IS coloring exceeded the {MAX_COLORS}-color cap");
    let colors: Vec<u32> = c.to_vec().into_iter().map(|x| x as u32).collect();
    ColoringResult::from_device(dev, colors, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::assert_proper;
    use gc_graph::generators::{complete, cycle, erdos_renyi, grid2d, path, star, Stencil2d};

    #[test]
    fn colors_fixed_topologies() {
        for g in [path(13), cycle(9), star(17), complete(6)] {
            let r = gblas_is(&g, 5);
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn colors_random_graph() {
        let g = erdos_renyi(400, 0.02, 2);
        let r = gblas_is(&g, 7);
        assert_proper(&g, r.coloring.as_slice());
    }

    #[test]
    fn colors_mesh() {
        let g = grid2d(18, 18, Stencil2d::FivePoint);
        let r = gblas_is(&g, 1);
        assert_proper(&g, r.coloring.as_slice());
    }

    #[test]
    fn empty_graph_single_iteration_per_color() {
        let g = Csr::empty(5);
        let r = gblas_is(&g, 0);
        assert_proper(&g, r.coloring.as_slice());
        // All isolated vertices beat the (identity) max at once.
        assert_eq!(r.num_colors, 1);
    }

    #[test]
    fn complete_needs_n_colors_and_n_iterations() {
        let g = complete(5);
        let r = gblas_is(&g, 3);
        assert_eq!(r.num_colors, 5);
        assert_eq!(r.iterations, 6); // 5 coloring rounds + empty-frontier round
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(300, 0.02, 8);
        let a = gblas_is(&g, 11);
        let b = gblas_is(&g, 11);
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.model_ms, b.model_ms);
    }

    #[test]
    fn one_color_per_iteration() {
        let g = erdos_renyi(200, 0.05, 4);
        let r = gblas_is(&g, 2);
        assert_eq!(r.num_colors + 1, r.iterations);
    }

    #[test]
    fn compacted_matches_full_width() {
        for g in [
            erdos_renyi(300, 0.02, 5),
            grid2d(16, 16, Stencil2d::FivePoint),
            star(21),
            complete(6),
        ] {
            let compacted = gblas_is(&g, 9);
            let full = run_on_full(&Device::k40c(), &g, 9);
            assert_eq!(compacted.coloring, full.coloring);
            assert_eq!(compacted.iterations, full.iterations);
        }
    }

    #[test]
    fn short_cutting_is_proper_and_never_worse_than_round_indexed() {
        for g in [
            path(13),
            cycle(9),
            star(17),
            complete(6),
            erdos_renyi(300, 0.02, 5),
            grid2d(16, 16, Stencil2d::FivePoint),
        ] {
            let sc = gblas_is_sc(&g, 9);
            let ri = gblas_is(&g, 9);
            assert_proper(&g, sc.coloring.as_slice());
            assert!(
                sc.num_colors <= ri.num_colors,
                "short-cutting used {} colors vs round-indexed {}",
                sc.num_colors,
                ri.num_colors
            );
            // Identical winner sets => identical round counts.
            assert_eq!(sc.iterations, ri.iterations);
        }
    }

    #[test]
    fn short_cutting_beats_round_indexing_on_sparse_graphs() {
        // One-shot Luby IS needs many rounds on a mesh, and the
        // round-indexed variant mints a color per round; first-fit
        // stays near the stencil's chromatic number.
        let g = grid2d(24, 24, Stencil2d::FivePoint);
        let sc = gblas_is_sc(&g, 9);
        let ri = gblas_is(&g, 9);
        assert!(
            sc.num_colors < ri.num_colors,
            "short-cutting {} vs round-indexed {}",
            sc.num_colors,
            ri.num_colors
        );
    }

    #[test]
    fn short_cutting_is_deterministic() {
        let g = erdos_renyi(300, 0.02, 8);
        let a = gblas_is_sc(&g, 11);
        let b = gblas_is_sc(&g, 11);
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.model_ms, b.model_ms);
    }

    #[test]
    fn compacted_does_less_simulated_work() {
        let g = erdos_renyi(600, 0.01, 3);
        let compacted = gblas_is(&g, 9);
        let full = run_on_full(&Device::k40c(), &g, 9);
        let (c, f) = (
            compacted.profile.unwrap().thread_executions,
            full.profile.unwrap().thread_executions,
        );
        assert!(c < f, "compacted {c} vs full {f} thread executions");
    }
}
