//! `GraphBLAST/Color_MIS` — Algorithm 3: *maximal* independent set per
//! color.
//!
//! Outer loop as in Algorithm 2, but instead of coloring the one-shot
//! Luby set, an inner do-while (GRAPHBLASMISINNER) keeps adding vertices
//! until the set is maximal: each pass selects the local maxima among
//! remaining candidates, adds them to the MIS, then removes them *and
//! their neighbors* from the candidate list with a Boolean `vxm` plus a
//! masked `assign` — the "second traversal per iteration" the paper's
//! profiling blames for the 3× runtime, rewarded by the best color count
//! of all implementations (better than sequential greedy).

//! The default path keeps a compacted [`Frontier`] of uncolored
//! vertices; the inner do-while contracts its own candidate list every
//! pass and replaces the neighbor-removal `vxm` + masked `assign` pair
//! with a push-mode [`ops::assign_adj`] over just the new members'
//! edges. [`run_on_full`] preserves the paper's full-width
//! transcription.

use gc_graph::Csr;
use gc_graphblas::{ops, BooleanOrAnd, Descriptor, Matrix, MaxTimes, Vector};
use gc_vgpu::rng::vertex_weight_i64;
use gc_vgpu::{Device, Frontier};

use crate::color::ColoringResult;

/// Safety cap on colors.
const MAX_COLORS: u32 = 100_000;

/// Runs Algorithm 3 (inside the Algorithm 2 outer loop) on a fresh
/// K40c-model device.
pub fn gblas_mis(g: &Csr, seed: u64) -> ColoringResult {
    let dev = Device::k40c();
    run_on(&dev, g, seed)
}

/// The GRAPHBLASMISINNER procedure: computes a maximal independent set
/// of the vertices with non-zero `weight`, leaving it in `mis` (1/0).
/// `work`, `max`, `frontier`, `nbr` are caller-provided scratch vectors.
#[allow(clippy::too_many_arguments)]
fn mis_inner(
    dev: &Device,
    a: &Matrix,
    weight: &Vector<i64>,
    mis: &Vector<i64>,
    work: &Vector<i64>,
    max: &Vector<i64>,
    frontier: &Vector<i64>,
    nbr: &Vector<i64>,
) {
    let desc = Descriptor::null();
    // Initialize MIS array to 0; candidates = live weights.
    ops::assign_scalar(dev, mis, None, 0, desc);
    ops::apply(dev, work, None, |w| w, weight, desc);
    loop {
        // Find max of neighbors among candidates (masked by candidacy).
        ops::vxm(dev, max, Some(work), &MaxTimes, work, a, desc);
        // Frontier: candidates beating all candidate neighbors.
        ops::ewise_add(
            dev,
            frontier,
            None,
            |w, m| (w != 0 && w > m) as i64,
            work,
            max,
            desc,
        );
        // Assign new members to the independent set and drop them from
        // the candidate list.
        ops::assign_scalar(dev, mis, Some(frontier), 1, desc);
        ops::assign_scalar(dev, work, Some(frontier), 0, desc);
        // Stop when the frontier is empty.
        let succ = ops::reduce(dev, 0i64, |x, y| x + y, frontier);
        if succ == 0 {
            break;
        }
        // Remove the new members' neighbors from the candidates.
        // (A masked pull is already direction-optimal here: failing rows
        // cost one mask read, so the push-mode pipeline — available as
        // `ops::vxm_direction_opt` — does not pay for itself; see the
        // push-pull discussion in EXPERIMENTS.md.)
        ops::vxm(dev, nbr, Some(work), &BooleanOrAnd, frontier, a, desc);
        ops::assign_scalar(dev, work, Some(nbr), 0, desc);
    }
}

/// GRAPHBLASMISINNER over a compacted candidate list: adds a maximal
/// independent set of `active`'s vertices to `mis`, returning the number
/// of members added.
///
/// Equivalent to [`mis_inner`] restricted to `active` (colorings are
/// bit-identical): `work` is globally zero outside the candidate list —
/// every vertex that ever leaves candidacy has its `work` zeroed at that
/// moment and is never re-initialized — so the pull product at a listed
/// row combines exactly the same live neighbors the masked full-width
/// product does. The neighbor removal runs push-mode over just the new
/// members' adjacency ([`ops::assign_adj`]), which writes the same
/// entries the Boolean `vxm` + masked `assign` pair marks (zeroing an
/// already-zero non-candidate is a no-op).
/// The inner pass is captured once as a [`gc_vgpu::LaunchGraph`] and
/// replayed per pass: up to five kernels (fused max-and-beat test,
/// member contraction, two member assigns, push-mode neighbor removal,
/// candidate contraction) pay one launch overhead together. The
/// empty-members convergence branch runs inline in the captured body —
/// host control flow resolves at replay time, so the final (empty)
/// pass replays the same graph and simply skips the epilogue.
fn mis_inner_list(
    dev: &Device,
    a: &Matrix,
    weight: &Vector<i64>,
    mis: &Vector<i64>,
    work: &Vector<i64>,
    frontier: &Vector<i64>,
    active: &Frontier,
) -> usize {
    use std::cell::{Cell, RefCell};

    // Initialize MIS array to 0; candidates = live weights. Outside the
    // active list both are stale but never read (assigns and products
    // below are list-restricted).
    ops::assign_scalar_list(dev, mis, 0, active);
    ops::apply_list(dev, work, |w| w, weight, active);
    let cand: RefCell<Option<Frontier>> = RefCell::new(None);
    let pass_added = Cell::new(0usize);
    let pass = dev.capture("grb::mis_pass", || {
        let guard = cand.borrow();
        let cur = guard.as_ref().unwrap_or(active);
        // Max of candidate neighbors and the "beats them all" test,
        // fused into one kernel (work is zero off the candidate list,
        // so the product skips non-candidates).
        ops::vxm_apply_list(
            dev,
            frontier,
            &MaxTimes,
            |w, m| (w != 0 && w > m) as i64,
            work,
            a,
            cur,
        );
        // New members; the metered length readback is the old reduce(+)
        // result the host branched on.
        let members = cur.contract(dev, "grb::mis_members", |t, v| {
            frontier.truthy(t, v as usize)
        });
        pass_added.set(members.read_len(dev));
        if members.is_empty() {
            return;
        }
        // Add them to the set; drop them from the candidate list.
        ops::assign_scalar_list(dev, mis, 1, &members);
        ops::assign_scalar_list(dev, work, 0, &members);
        // Remove the new members' neighbors from the candidates,
        // push-mode over the members' edges.
        ops::assign_adj(dev, work, 0, a, &members);
        let next = cur.contract(dev, "grb::mis_cand", |t, v| work.truthy(t, v as usize));
        drop(guard);
        *cand.borrow_mut() = Some(next);
    });
    let mut added = 0usize;
    loop {
        dev.replay(&pass);
        if pass_added.get() == 0 {
            break;
        }
        added += pass_added.get();
    }
    added
}

/// Runs the MIS coloring on the provided device with the compacted
/// active-vertex list (the default path).
pub fn run_on(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    let _pool = gc_vgpu::pool::lease();
    let n = g.num_vertices();
    let a = Matrix::from_graph(dev, g);
    let c = Vector::<i64>::new(n);
    let weight = Vector::<i64>::new(n);
    let mis = Vector::<i64>::new(n);
    let work = Vector::<i64>::new(n);
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

    let mut active = Frontier::all(n);
    let mut iterations = 0u32;
    let mut finished = false;
    for color in 1..=(MAX_COLORS as i64) {
        iterations += 1;
        // One span per outer (color) iteration: the inner do-while's
        // kernel events nest inside it on the tracing thread.
        let mut iter_span = gc_telemetry::span("iteration");
        let iter_model0 = if iter_span.is_recording() {
            dev.elapsed_ms()
        } else {
            0.0
        };
        iter_span.attr("iteration", iterations - 1);
        let size = mis_inner_list(dev, &a, &weight, &mis, &work, &frontier, &active);
        if iter_span.is_recording() {
            iter_span.attr("mis_size", size as i64);
            iter_span.attr("colors_so_far", color);
            iter_span.set_model_range(iter_model0, dev.elapsed_ms());
        }
        if size == 0 {
            finished = true;
            break;
        }
        // Color the set (mis is fresh across the whole active list),
        // zero its weights, and contract the colored vertices out of the
        // list — the old two masked assigns plus contraction, fused into
        // one compaction kernel. Survivors-by-not-mis equals the old
        // survivors-by-live-weight: every active vertex had a live
        // weight, and exactly the MIS members lose theirs here.
        active = ops::assign_where_compact(
            dev,
            "grb::mis_active",
            &mis,
            &[(&c, color), (&weight, 0)],
            &active,
        );
    }

    assert!(finished, "MIS coloring exceeded the {MAX_COLORS}-color cap");
    let colors: Vec<u32> = c.to_vec().into_iter().map(|x| x as u32).collect();
    ColoringResult::from_device(dev, colors, iterations)
}

/// Runs the MIS coloring full-width, as the paper transcribes it. Kept
/// as the pre-compaction baseline for the benchmark harness and the
/// equivalence tests.
pub fn run_on_full(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    let n = g.num_vertices();
    let a = Matrix::from_graph(dev, g);
    let c = Vector::<i64>::new(n);
    let weight = Vector::<i64>::new(n);
    let mis = Vector::<i64>::new(n);
    let work = Vector::<i64>::new(n);
    let max = Vector::<i64>::new(n);
    let frontier = Vector::<i64>::new(n);
    let nbr = Vector::<i64>::new(n);
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
        // One span per outer (color) iteration: the inner do-while's
        // kernel events nest inside it on the tracing thread.
        let mut iter_span = gc_telemetry::span("iteration");
        let iter_model0 = if iter_span.is_recording() {
            dev.elapsed_ms()
        } else {
            0.0
        };
        iter_span.attr("iteration", iterations - 1);
        mis_inner(dev, &a, &weight, &mis, &work, &max, &frontier, &nbr);
        let size = ops::reduce(dev, 0i64, |x, y| x + y, &mis);
        if iter_span.is_recording() {
            iter_span.attr("mis_size", size);
            iter_span.attr("colors_so_far", color);
            iter_span.set_model_range(iter_model0, dev.elapsed_ms());
        }
        if size == 0 {
            finished = true;
            break;
        }
        ops::assign_scalar(dev, &c, Some(&mis), color, desc);
        ops::assign_scalar(dev, &weight, Some(&mis), 0, desc);
    }

    assert!(finished, "MIS coloring exceeded the {MAX_COLORS}-color cap");
    let colors: Vec<u32> = c.to_vec().into_iter().map(|x| x as u32).collect();
    ColoringResult::from_device(dev, colors, iterations)
}

/// Standalone maximal-independent-set computation (exposed for tests and
/// the scheduling example): returns the 0/1 membership vector of an MIS
/// of `g`.
pub fn maximal_independent_set(g: &Csr, seed: u64) -> Vec<bool> {
    let dev = Device::k40c();
    let n = g.num_vertices();
    let a = Matrix::from_graph(&dev, g);
    let weight = Vector::<i64>::new(n);
    ops::apply_indexed(
        &dev,
        &weight,
        None,
        |i, _| vertex_weight_i64(seed, i as u32),
        &weight,
        Descriptor::null(),
    );
    let mis = Vector::<i64>::new(n);
    let work = Vector::<i64>::new(n);
    let max = Vector::<i64>::new(n);
    let frontier = Vector::<i64>::new(n);
    let nbr = Vector::<i64>::new(n);
    mis_inner(&dev, &a, &weight, &mis, &work, &max, &frontier, &nbr);
    mis.to_vec().into_iter().map(|x| x != 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gblas_is;
    use crate::greedy::{greedy, Ordering};
    use crate::verify::assert_proper;
    use gc_graph::generators::{complete, cycle, erdos_renyi, grid2d, path, star, Stencil2d};

    fn assert_maximal_is(g: &Csr, mis: &[bool]) {
        // Independence.
        for (u, v) in g.edges() {
            assert!(
                !(mis[u as usize] && mis[v as usize]),
                "edge ({u},{v}) inside MIS"
            );
        }
        // Maximality: every non-member has a member neighbor.
        for v in g.vertices() {
            if !mis[v as usize] {
                assert!(
                    g.neighbors(v).iter().any(|&u| mis[u as usize]),
                    "vertex {v} could be added"
                );
            }
        }
    }

    #[test]
    fn mis_is_independent_and_maximal() {
        for g in [
            path(20),
            cycle(9),
            star(15),
            complete(7),
            erdos_renyi(200, 0.03, 1),
        ] {
            let mis = maximal_independent_set(&g, 5);
            assert_maximal_is(&g, &mis);
        }
    }

    #[test]
    fn colors_fixed_topologies() {
        for g in [path(13), cycle(9), star(17), complete(6)] {
            let r = gblas_mis(&g, 5);
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn colors_random_and_mesh() {
        let g = erdos_renyi(300, 0.02, 2);
        assert_proper(&g, gblas_mis(&g, 7).coloring.as_slice());
        let m = grid2d(14, 14, Stencil2d::NinePoint);
        assert_proper(&m, gblas_mis(&m, 7).coloring.as_slice());
    }

    #[test]
    fn mis_uses_fewer_colors_than_is() {
        let g = erdos_renyi(500, 0.02, 9);
        let mis = gblas_mis(&g, 3);
        let is = gblas_is::gblas_is(&g, 3);
        assert!(
            mis.num_colors < is.num_colors,
            "MIS {} vs IS {}",
            mis.num_colors,
            is.num_colors
        );
    }

    #[test]
    fn mis_quality_is_near_greedy() {
        // The paper: 1.014x fewer colors than sequential greedy (i.e.
        // parity). Accept a small band around greedy.
        let g = erdos_renyi(500, 0.02, 9);
        let mis = gblas_mis(&g, 3);
        let gr = greedy(&g, Ordering::Natural, 0);
        assert!(
            (mis.num_colors as f64) <= 1.35 * gr.num_colors as f64,
            "MIS {} vs greedy {}",
            mis.num_colors,
            gr.num_colors
        );
    }

    #[test]
    fn mis_is_slower_than_is() {
        let g = erdos_renyi(500, 0.02, 9);
        let mis = gblas_mis(&g, 3);
        let is = gblas_is::gblas_is(&g, 3);
        assert!(mis.model_ms > is.model_ms);
    }

    #[test]
    fn mis_iterations_equal_colors_plus_final() {
        let g = cycle(30);
        let r = gblas_mis(&g, 1);
        assert_eq!(r.iterations, r.num_colors + 1);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(200, 0.04, 6);
        assert_eq!(gblas_mis(&g, 2).coloring, gblas_mis(&g, 2).coloring);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4);
        let r = gblas_mis(&g, 0);
        assert_proper(&g, r.coloring.as_slice());
        assert_eq!(r.num_colors, 1);
    }

    #[test]
    fn compacted_matches_full_width() {
        for g in [
            erdos_renyi(300, 0.02, 5),
            grid2d(12, 12, Stencil2d::NinePoint),
            star(21),
            cycle(30),
        ] {
            let compacted = gblas_mis(&g, 9);
            let full = run_on_full(&Device::k40c(), &g, 9);
            assert_eq!(compacted.coloring, full.coloring);
            assert_eq!(compacted.iterations, full.iterations);
        }
    }

    #[test]
    fn compacted_does_less_simulated_work() {
        let g = erdos_renyi(600, 0.01, 3);
        let compacted = gblas_mis(&g, 9);
        let full = run_on_full(&Device::k40c(), &g, 9);
        let (c, f) = (
            compacted.profile.unwrap().thread_executions,
            full.profile.unwrap().thread_executions,
        );
        assert!(c < f, "compacted {c} vs full {f} thread executions");
    }
}
