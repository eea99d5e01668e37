//! `Gunrock/Color_AR` — Algorithm 7: advance + neighbor-reduce coloring.
//!
//! Replaces the serial per-vertex neighbor loop of the IS kernel with a
//! load-balanced `advance` (one thread per *edge*) followed by a
//! segmented max-reduction over each neighbor list. Perfectly balanced —
//! and, exactly as the paper measures, much slower end-to-end: every
//! iteration costs a whole pipeline of kernels (degree, scan, gather,
//! map, segmented reduce, color, filter) plus their synchronizations,
//! and the reduce operator can only produce one comparison per pass, so
//! only one color is assigned per iteration.

use gc_graph::Csr;
use gc_gunrock::{ops, DeviceCsr};
use gc_vgpu::rng::vertex_weight;
use gc_vgpu::{Device, DeviceBuffer, Frontier};

use crate::color::ColoringResult;
use crate::rounds::{Rounds, Shape};

/// Runs Algorithm 7 on a fresh K40c-model device.
pub fn gunrock_ar(g: &Csr, seed: u64) -> ColoringResult {
    let dev = Device::k40c();
    run_on(&dev, g, seed)
}

/// Runs Algorithm 7 on the provided device with the compacted frontier
/// (see [`Shape::Compacted`]): advance, map, segmented reduce, color and
/// contraction replay as one captured launch graph per iteration, so the
/// fixed launch overhead of AR's seven-kernel pipeline is paid once per
/// iteration, over exactly the still-uncolored vertices.
pub fn run_on(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    run(dev, g, seed, Shape::Compacted)
}

/// Runs Algorithm 7 as the paper's Gunrock implementation launched it:
/// every operator spans all `n` vertices every iteration (the advance
/// enumerates every vertex's neighbor list) and a full-width count
/// kernel tests convergence (see [`Shape::FullWidth`]).
pub fn run_on_full(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    run(dev, g, seed, Shape::FullWidth)
}

fn run(dev: &Device, g: &Csr, seed: u64, shape: Shape) -> ColoringResult {
    let n = g.num_vertices();
    let csr = DeviceCsr::upload(dev, g);
    let colors = DeviceBuffer::<u32>::zeroed(n);
    let rand = DeviceBuffer::<u64>::zeroed(n);
    dev.reset();

    dev.launch("ar::init_random", n, |t| {
        let v = t.tid();
        t.charge(12);
        t.write(&rand, v, vertex_weight(seed, v as u32));
    });

    let full_width = shape == Shape::FullWidth;
    let round = |iteration: u32, frontier: &Frontier| {
        let color = iteration + 1;
        // Neighbor-reduce: max random number among *uncolored* neighbors
        // of every frontier vertex.
        let reduced = ops::neighbor_reduce(
            dev,
            "ar::neighbor_reduce",
            &csr,
            frontier,
            |t, _src, dst| {
                if t.read(&colors, dst as usize) == 0 {
                    t.read(&rand, dst as usize)
                } else {
                    0
                }
            },
            0u64,
            u64::max,
        );
        let reduced_dev = DeviceBuffer::from_slice(&reduced);

        // ColorRemovedOp: frontier vertices beating their reduction get
        // this iteration's color.
        ops::compute(dev, "ar::color_removed_op", frontier, |t, v| {
            // At full width, already-colored vertices must keep their
            // color: their max over uncolored neighbors shrinks over
            // time and would let them "win" again. The compacted
            // frontier holds only uncolored vertices, so it skips the
            // read.
            if full_width && t.read(&colors, v as usize) != 0 {
                return;
            }
            // Frontier position == thread id because compute maps 1:1.
            let i = t.tid();
            let m = t.read(&reduced_dev, i);
            let rv = t.read(&rand, v as usize);
            if rv > m {
                t.write(&colors, v as usize, color);
            }
        });
    };
    let keep_kernel = match shape {
        Shape::Compacted => "ar::filter_uncolored",
        Shape::FullWidth => "ar::check_op",
    };
    let iterations = Rounds::new(dev, shape, "ar::iteration", keep_kernel).run(
        n,
        round,
        |t, v| t.read(&colors, v as usize) == 0,
        |_| {},
    );

    ColoringResult::from_device(dev, colors.to_vec(), iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gunrock_is::{self, IsConfig};
    use crate::verify::assert_proper;
    use gc_graph::generators::{complete, cycle, erdos_renyi, grid2d, path, star, Stencil2d};

    #[test]
    fn colors_fixed_topologies() {
        for g in [path(12), cycle(9), star(15), complete(5)] {
            let r = gunrock_ar(&g, 4);
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn colors_random_graph() {
        let g = erdos_renyi(300, 0.02, 8);
        let r = gunrock_ar(&g, 2);
        assert_proper(&g, r.coloring.as_slice());
    }

    #[test]
    fn colors_mesh() {
        let g = grid2d(12, 12, Stencil2d::FivePoint);
        let r = gunrock_ar(&g, 1);
        assert_proper(&g, r.coloring.as_slice());
    }

    #[test]
    fn empty_graph_one_iteration() {
        let g = Csr::empty(6);
        let r = gunrock_ar(&g, 0);
        assert_proper(&g, r.coloring.as_slice());
        assert_eq!(r.num_colors, 1);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(200, 0.03, 1);
        assert_eq!(gunrock_ar(&g, 6).coloring, gunrock_ar(&g, 6).coloring);
    }

    #[test]
    fn one_color_per_iteration() {
        let g = erdos_renyi(200, 0.03, 1);
        let r = gunrock_ar(&g, 6);
        // Colors are assigned one per iteration, so the count of colors
        // equals the number of *coloring* iterations (final iteration
        // only drains the frontier).
        assert!(r.num_colors <= r.iterations);
    }

    #[test]
    fn ar_is_much_slower_than_is() {
        // Table II: AR is the baseline everything else speeds up from.
        // The paper measured the launch-per-operator shape, so compare
        // the uncaptured full-width arms; with captured pipelines the
        // gap narrows (AR's seven launches per iteration collapse to
        // one) but stays — see ar_stays_slower_than_is_when_captured.
        let g = erdos_renyi(800, 0.01, 3);
        let ar = run_on_full(&Device::k40c(), &g, 5);
        let is = gunrock_is::run_on_full(&Device::k40c(), &g, 5, IsConfig::min_max());
        assert_proper(&g, ar.coloring.as_slice());
        assert!(
            ar.model_ms > 3.0 * is.model_ms,
            "AR {} ms vs IS {} ms",
            ar.model_ms,
            is.model_ms
        );
    }

    #[test]
    fn ar_stays_slower_than_is_when_captured() {
        // Launch graphs amortize AR's per-operator overhead but cannot
        // fix its one-comparison-per-pass reduction: it still runs more
        // iterations over a whole advance/reduce pipeline.
        let g = erdos_renyi(800, 0.01, 3);
        let ar = gunrock_ar(&g, 5);
        let is = gunrock_is::gunrock_is(&g, 5, IsConfig::min_max());
        assert!(
            ar.model_ms > is.model_ms,
            "AR {} ms vs IS {} ms",
            ar.model_ms,
            is.model_ms
        );
    }

    #[test]
    fn ar_runs_many_kernels_per_iteration() {
        let g = path(100);
        let r = gunrock_ar(&g, 0);
        let p = r.profile.as_ref().unwrap();
        // The full pipeline still runs every iteration — inside one
        // replayed launch graph per iteration.
        assert_eq!(p.graph_replays, r.iterations as u64);
        assert!(p.graph_kernels >= 6 * r.iterations as u64);
        assert!(r.kernel_launches > r.iterations as u64);
        assert!(p.launch_overhead_saved_cycles > 0.0);
    }

    #[test]
    fn compacted_matches_full_width() {
        for g in [
            erdos_renyi(300, 0.02, 8),
            grid2d(12, 12, Stencil2d::FivePoint),
            star(15),
            complete(5),
        ] {
            let compacted = gunrock_ar(&g, 2);
            let full = run_on_full(&Device::k40c(), &g, 2);
            assert_eq!(compacted.coloring, full.coloring);
            assert_eq!(compacted.iterations, full.iterations);
            assert!(compacted.kernel_launches < full.kernel_launches);
        }
    }

    #[test]
    fn compacted_does_much_less_simulated_work() {
        // The frontier sheds one color class per iteration, so the
        // compacted pipeline's thread work shrinks every round while
        // the full-width baseline re-scans all n vertices (and every
        // edge) until the last vertex is colored.
        let g = erdos_renyi(600, 0.01, 3);
        let compacted = gunrock_ar(&g, 5);
        let full = run_on_full(&Device::k40c(), &g, 5);
        let (c, f) = (
            compacted.profile.unwrap().thread_executions,
            full.profile.unwrap().thread_executions,
        );
        assert!(
            f as f64 >= 1.5 * c as f64,
            "full {f} vs compacted {c} thread executions"
        );
    }
}
