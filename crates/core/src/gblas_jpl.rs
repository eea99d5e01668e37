//! `GraphBLAST/Color_JPL` — Algorithm 4: Jones-Plassmann coloring with
//! the `GxB_scatter` extension.
//!
//! The outer loop selects the Luby frontier exactly as Algorithm 2; the
//! helper (GRAPHBLASJPINNER) then computes the *minimum available color*:
//! the colors of every vertex adjacent to the frontier are scattered into
//! a possible-colors array, the array is compared against an ascending
//! sequence, a `setElement` knocks out slot 0 (the paper notes this
//! memcpy-backed call shows up in profiles), and a min-reduction yields
//! the smallest color no frontier neighbor uses. The frontier — an
//! independent set — takes that single color, which is what lets JPL
//! *reuse* colors across iterations and beat Algorithm 2's quality.

//! The default path keeps a compacted `Frontier` of uncolored
//! vertices; the helper then runs push-mode — the frontier's neighbor
//! colors are scattered by one kernel over the frontier's own edges
//! ([`ops::scatter_adj`] replaces the Boolean `vxm` + `eWiseMult` +
//! full-width `GxB_scatter` chain), and the possible-colors machinery
//! spans only a prefix of the color array sized by the iteration count
//! (at most `iterations` distinct colors can exist, so the minimum free
//! color always lands inside the prefix). [`run_on_full`] preserves the
//! paper's transcription.

use gc_graph::Csr;
use gc_graphblas::{ops, BooleanOrAnd, Descriptor, Matrix, MaxTimes, Vector};
use gc_vgpu::rng::vertex_weight_i64;
use gc_vgpu::{Device, Frontier};

use crate::color::ColoringResult;

/// Safety cap on outer iterations.
const MAX_ITERATIONS: u32 = 100_000;

/// A value larger than any real color, used as the "taken" sentinel in
/// the min-reduction.
const TAKEN: i64 = i64::MAX / 2;

/// JPL variant knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JplConfig {
    /// Use the §V.C-suggested optimization: knock out slot 0 of the
    /// min-array with a one-thread `GrB_assign` kernel instead of the
    /// `setElement` host→device copy the paper's profile flags.
    pub assign_instead_of_set_element: bool,
}

impl JplConfig {
    /// The paper's implementation as profiled (memcpy-backed setElement).
    pub fn paper() -> Self {
        JplConfig::default()
    }

    /// With the paper's suggested optimization applied.
    pub fn optimized() -> Self {
        JplConfig {
            assign_instead_of_set_element: true,
        }
    }
}

/// Runs Algorithm 4 on a fresh K40c-model device.
pub fn gblas_jpl(g: &Csr, seed: u64) -> ColoringResult {
    let dev = Device::k40c();
    run_on(&dev, g, seed)
}

/// Runs Algorithm 4 with explicit variant knobs.
pub fn gblas_jpl_with(g: &Csr, seed: u64, cfg: JplConfig) -> ColoringResult {
    let dev = Device::k40c();
    run_on_with(&dev, g, seed, cfg)
}

/// GRAPHBLASJPINNER: minimum color unused by every neighbor of the
/// frontier. `nbr`, `ncolors` are n-sized scratch; `colors_arr`,
/// `min_array`, `ascending` are (max_colors)-sized scratch.
#[allow(clippy::too_many_arguments)]
fn jp_inner(
    dev: &Device,
    a: &Matrix,
    c: &Vector<i64>,
    frontier: &Vector<i64>,
    nbr: &Vector<i64>,
    ncolors: &Vector<i64>,
    colors_arr: &Vector<i64>,
    min_array: &Vector<i64>,
    ascending: &Vector<i64>,
    cfg: JplConfig,
) -> i64 {
    let desc = Descriptor::null();
    // Find neighbors of frontier.
    ops::vxm(dev, nbr, None, &BooleanOrAnd, frontier, a, desc);
    // Colors in use around the frontier.
    ops::ewise_mult(dev, ncolors, None, |_, col| col, nbr, c, desc);
    // Fill the possible-colors array and scatter the used colors into it.
    ops::assign_scalar(dev, colors_arr, None, 0, desc);
    ops::scatter(dev, colors_arr, ncolors, 1);
    // Map free slots to their index, taken slots to the sentinel.
    ops::ewise_add(
        dev,
        min_array,
        None,
        |used, asc| if used == 0 { asc } else { TAKEN },
        colors_arr,
        ascending,
        desc,
    );
    // Color 0 is not a real color (the paper's setElement call; the
    // optimized variant uses the in-device assign instead).
    if cfg.assign_instead_of_set_element {
        min_array.assign_element(dev, 0, TAKEN);
    } else {
        min_array.set_element(dev, 0, TAKEN);
    }
    // Compute min color.
    ops::reduce(dev, i64::MAX, i64::min, min_array)
}

/// GRAPHBLASJPINNER, push-mode: the minimum color unused by every
/// neighbor of `members` (the frontier as a compacted list).
///
/// One [`ops::scatter_adj`] kernel over the frontier's edges marks the
/// neighbor colors directly — the same set the full-width chain (Boolean
/// `vxm`, `eWiseMult` against `c`, `GxB_scatter`) marks, since both
/// visit exactly the positive colors adjacent to the frontier. The
/// reset/compare/reduce trio spans only `limit` slots: at most
/// `iteration` distinct colors exist when round `iteration` runs (each
/// round assigns one color, at most one above the previous maximum), so
/// with `limit = iteration + 2` the minimum free color is always inside
/// the prefix, and every slot a past round dirtied is re-zeroed (the
/// prefix only grows). Entries past the prefix are never read.
#[allow(clippy::too_many_arguments)]
fn jp_inner_list(
    dev: &Device,
    a: &Matrix,
    c: &Vector<i64>,
    members: &Frontier,
    colors_arr: &Vector<i64>,
    min_array: &Vector<i64>,
    ascending: &Vector<i64>,
    limit: usize,
    cfg: JplConfig,
) -> i64 {
    let prefix = Frontier::all(limit);
    // Reset the possible-colors prefix and scatter the colors in use
    // around the frontier into it.
    ops::assign_scalar_list(dev, colors_arr, 0, &prefix);
    ops::scatter_adj(dev, colors_arr, c, 1, a, members);
    // Map free slots to their index, taken slots to the sentinel.
    ops::ewise_add_list(
        dev,
        min_array,
        |used, asc| if used == 0 { asc } else { TAKEN },
        colors_arr,
        ascending,
        &prefix,
    );
    // Color 0 is not a real color (the paper's setElement call; the
    // optimized variant uses the in-device assign instead).
    if cfg.assign_instead_of_set_element {
        min_array.assign_element(dev, 0, TAKEN);
    } else {
        min_array.set_element(dev, 0, TAKEN);
    }
    // Compute min color over the prefix.
    ops::reduce_list(dev, i64::MAX, i64::min, min_array, &prefix)
}

/// Runs the JPL coloring on the provided device.
pub fn run_on(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    run_on_with(dev, g, seed, JplConfig::paper())
}

/// Runs the JPL coloring with explicit variant knobs on the provided
/// device, on the compacted-frontier path: Luby selection over the
/// active frontier (as in Algorithm 2's compacted form) plus the
/// push-mode, prefix-limited `jp_inner_list`. Colorings are
/// bit-identical to [`run_on_full`].
///
/// The whole outer round — fused Luby selection, member contraction,
/// the inner minimum-free-color helper, and the fused color/retire
/// compaction — is captured once as a [`gc_vgpu::LaunchGraph`] and
/// replayed per round, paying one launch overhead for the round's whole
/// kernel pipeline. The round's color limit, the frontier swap, and the
/// empty-frontier early-out are host logic inside the captured body, so
/// they resolve at replay time and the shrinking frontier stays exact.
pub fn run_on_with(dev: &Device, g: &Csr, seed: u64, cfg: JplConfig) -> ColoringResult {
    use std::cell::{Cell, RefCell};

    let _pool = gc_vgpu::pool::lease();
    let n = g.num_vertices();
    // Enough slots that a free color always exists (see `run_on_full`); the
    // per-iteration prefix keeps the touched span near the color count.
    let max_colors = n + 2;
    let a = Matrix::from_graph(dev, g);
    let c = Vector::<i64>::new(n);
    let weight = Vector::<i64>::new(n);
    let frontier = Vector::<i64>::new(n);
    let colors_arr = Vector::<i64>::new(max_colors);
    let min_array = Vector::<i64>::new(max_colors);
    let ascending = Vector::<i64>::new(max_colors);
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
    // ascending = 0, 1, 2, ..., max_colors - 1.
    ops::apply_indexed(dev, &ascending, None, |i, _| i as i64, &ascending, desc);

    let active = RefCell::new(Frontier::all(n));
    let round = Cell::new(0u32);
    let frontier_size = Cell::new(0usize);
    let round_color = Cell::new(0i64);
    let pipeline = dev.capture("grb::jpl_round", || {
        let cur = active.borrow();
        // Max live-neighbor weight and the Luby GT test, fused.
        ops::vxm_apply_list(
            dev,
            &frontier,
            &MaxTimes,
            |w, m| (w != 0 && w > m) as i64,
            &weight,
            &a,
            &cur,
        );
        let members = cur.contract(dev, "grb::jpl_members", |t, v| {
            frontier.truthy(t, v as usize)
        });
        frontier_size.set(members.read_len(dev));
        if members.is_empty() {
            return;
        }
        let limit = (round.get() as usize + 2).min(max_colors);
        let min_color = jp_inner_list(
            dev,
            &a,
            &c,
            &members,
            &colors_arr,
            &min_array,
            &ascending,
            limit,
            cfg,
        );
        debug_assert!((1..TAKEN).contains(&min_color));
        round_color.set(min_color);
        // Color the frontier, kill its weights, and contract it out of
        // the active list in one fused compaction (survivors-by-not-
        // frontier equals the old survivors-by-live-weight: exactly the
        // frontier loses its weight here).
        let next = ops::assign_where_compact(
            dev,
            "grb::jpl_active",
            &frontier,
            &[(&c, min_color), (&weight, 0)],
            &cur,
        );
        drop(cur);
        *active.borrow_mut() = next;
    });

    let mut iterations = 0u32;
    loop {
        assert!(iterations < MAX_ITERATIONS, "JPL failed to terminate");
        iterations += 1;
        round.set(iterations);
        // One span per outer iteration: kernel events emitted by the
        // device below nest inside it on the tracing thread.
        let mut iter_span = gc_telemetry::span("iteration");
        let iter_model0 = if iter_span.is_recording() {
            dev.elapsed_ms()
        } else {
            0.0
        };
        iter_span.attr("iteration", iterations - 1);
        dev.replay(&pipeline);
        if iter_span.is_recording() {
            iter_span.attr("frontier_size", frontier_size.get() as i64);
            if frontier_size.get() > 0 {
                iter_span.attr("min_color", round_color.get());
            }
            iter_span.set_model_range(iter_model0, dev.elapsed_ms());
        }
        if frontier_size.get() == 0 {
            break;
        }
    }

    let colors: Vec<u32> = c.to_vec().into_iter().map(|x| x as u32).collect();
    ColoringResult::from_device(dev, colors, iterations)
}

/// The paper's full-width transcription as profiled (memcpy-backed
/// `setElement`), kept as the pre-compaction baseline for the benchmark
/// harness and the equivalence tests.
pub fn run_on_full(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    let cfg = JplConfig::paper();
    let n = g.num_vertices();
    // Enough slots that a free color always exists: at most `iterations`
    // distinct colors exist when the scatter runs, and iterations <= n.
    let max_colors = n + 2;
    let a = Matrix::from_graph(dev, g);
    let c = Vector::<i64>::new(n);
    let weight = Vector::<i64>::new(n);
    let max = Vector::<i64>::new(n);
    let frontier = Vector::<i64>::new(n);
    let nbr = Vector::<i64>::new(n);
    let ncolors = Vector::<i64>::new(n);
    let colors_arr = Vector::<i64>::new(max_colors);
    let min_array = Vector::<i64>::new(max_colors);
    let ascending = Vector::<i64>::new(max_colors);
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
    // ascending = 0, 1, 2, ..., max_colors - 1.
    ops::apply_indexed(dev, &ascending, None, |i, _| i as i64, &ascending, desc);

    let mut iterations = 0u32;
    loop {
        assert!(iterations < MAX_ITERATIONS, "JPL failed to terminate");
        iterations += 1;
        // One span per outer iteration: kernel events emitted by the
        // device below nest inside it on the tracing thread.
        let mut iter_span = gc_telemetry::span("iteration");
        let iter_model0 = if iter_span.is_recording() {
            dev.elapsed_ms()
        } else {
            0.0
        };
        iter_span.attr("iteration", iterations - 1);
        ops::vxm(dev, &max, None, &MaxTimes, &weight, &a, desc);
        ops::ewise_add(
            dev,
            &frontier,
            None,
            |w, m| (w != 0 && w > m) as i64,
            &weight,
            &max,
            desc,
        );
        let succ = ops::reduce(dev, 0i64, |x, y| x + y, &frontier);
        if iter_span.is_recording() {
            iter_span.attr("frontier_size", succ);
            iter_span.set_model_range(iter_model0, dev.elapsed_ms());
        }
        if succ == 0 {
            break;
        }
        let min_color = jp_inner(
            dev,
            &a,
            &c,
            &frontier,
            &nbr,
            &ncolors,
            &colors_arr,
            &min_array,
            &ascending,
            cfg,
        );
        debug_assert!((1..TAKEN).contains(&min_color));
        ops::assign_scalar(dev, &c, Some(&frontier), min_color, desc);
        ops::assign_scalar(dev, &weight, Some(&frontier), 0, desc);
        if iter_span.is_recording() {
            iter_span.attr("min_color", min_color);
            iter_span.set_model_range(iter_model0, dev.elapsed_ms());
        }
    }

    let colors: Vec<u32> = c.to_vec().into_iter().map(|x| x as u32).collect();
    ColoringResult::from_device(dev, colors, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gblas_is;
    use crate::verify::assert_proper;
    use gc_graph::generators::{complete, cycle, erdos_renyi, grid2d, path, star, Stencil2d};

    #[test]
    fn colors_fixed_topologies() {
        for g in [path(13), cycle(9), star(17), complete(6)] {
            let r = gblas_jpl(&g, 5);
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn colors_random_and_mesh() {
        let g = erdos_renyi(300, 0.02, 2);
        assert_proper(&g, gblas_jpl(&g, 7).coloring.as_slice());
        let m = grid2d(14, 14, Stencil2d::FivePoint);
        assert_proper(&m, gblas_jpl(&m, 7).coloring.as_slice());
    }

    #[test]
    fn jpl_reuses_colors_beating_is() {
        let g = erdos_renyi(500, 0.02, 9);
        let jpl = gblas_jpl(&g, 3);
        let is = gblas_is::gblas_is(&g, 3);
        assert!(
            jpl.num_colors <= is.num_colors,
            "JPL {} vs IS {}",
            jpl.num_colors,
            is.num_colors
        );
    }

    #[test]
    fn jpl_is_slower_than_is() {
        // The paper's §V.C ordering: IS fastest, then JPL, then MIS.
        let g = erdos_renyi(500, 0.02, 9);
        let jpl = gblas_jpl(&g, 3);
        let is = gblas_is::gblas_is(&g, 3);
        assert!(jpl.model_ms > is.model_ms);
    }

    #[test]
    fn jpl_profile_contains_setelement_memcpys() {
        // One setElement (memcpy) per outer iteration — the effect the
        // paper's profiling calls out.
        let dev = Device::k40c();
        let g = cycle(40);
        let r = run_on(&dev, &g, 1);
        let profile = dev.profile();
        assert!(profile.memcpys >= (r.iterations - 1) as u64);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(200, 0.04, 6);
        assert_eq!(gblas_jpl(&g, 2).coloring, gblas_jpl(&g, 2).coloring);
    }

    #[test]
    fn suggested_optimization_same_coloring_less_time() {
        // §V.C: replacing the setElement memcpy with GrB_assign must not
        // change the result, only the per-iteration cost.
        let g = erdos_renyi(300, 0.03, 4);
        let paper = gblas_jpl_with(&g, 2, JplConfig::paper());
        let opt = gblas_jpl_with(&g, 2, JplConfig::optimized());
        assert_eq!(paper.coloring, opt.coloring);
        assert!(
            opt.model_ms < paper.model_ms,
            "{} vs {}",
            opt.model_ms,
            paper.model_ms
        );
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4);
        let r = gblas_jpl(&g, 0);
        assert_proper(&g, r.coloring.as_slice());
        assert_eq!(r.num_colors, 1);
    }

    #[test]
    fn compacted_matches_full_width() {
        for g in [
            erdos_renyi(300, 0.02, 5),
            grid2d(14, 14, Stencil2d::FivePoint),
            star(21),
            complete(6),
        ] {
            let compacted = gblas_jpl(&g, 9);
            let full = run_on_full(&Device::k40c(), &g, 9);
            assert_eq!(compacted.coloring, full.coloring);
            assert_eq!(compacted.iterations, full.iterations);
        }
    }

    #[test]
    fn compacted_does_less_simulated_work() {
        let g = erdos_renyi(600, 0.01, 3);
        let compacted = gblas_jpl(&g, 9);
        let full = run_on_full(&Device::k40c(), &g, 9);
        let (c, f) = (
            compacted.profile.unwrap().thread_executions,
            full.profile.unwrap().thread_executions,
        );
        assert!(c < f, "compacted {c} vs full {f} thread executions");
    }
}
