//! The Naumov et al. baselines: cuSPARSE-style `csrcolor`.
//!
//! Naumov, Castonguay & Cohen (NVIDIA NVR-2015-001) implement the
//! *generalized* Luby algorithm — independent sets need not be maximal —
//! as hardwired CUDA kernels. Two variants are compared in the paper's
//! Figure 1:
//!
//! * **`Naumov/Color_JPL`** — one Jones-Plassmann-Luby step per
//!   iteration: fresh per-iteration hash values, the local maximum among
//!   uncolored neighbors takes the iteration's color. One color per
//!   iteration, no random-weight array in memory (hashes are recomputed
//!   in registers — the hardwired trick that makes this baseline strong).
//! * **`Naumov/Color_CC`** — the cuSPARSE `csrcolor` strategy: several
//!   hash functions per iteration, each contributing a max-set and a
//!   min-set, so `2 × hashes` colors are assigned per kernel. Far fewer
//!   iterations (fastest overall) at a heavy color-count cost — the 5×
//!   figure the paper quotes against GraphBLAST MIS.

use gc_graph::Csr;
use gc_gunrock::ops;
use gc_vgpu::rng::uniform_u32;
use gc_vgpu::{Device, DeviceBuffer, Frontier};

use crate::color::ColoringResult;
use crate::rounds::{Rounds, Shape};

/// Cycles charged per in-register hash evaluation.
const HASH_CYCLES: u64 = 10;

/// Tie-free per-iteration random key: hash in the high bits, vertex id in
/// the low bits.
#[inline]
fn key(seed: u64, iteration: u32, salt: u32, v: u32) -> u64 {
    let h = uniform_u32(seed ^ ((iteration as u64) << 32) ^ salt as u64, v);
    ((h as u64) << 32) | v as u64
}

/// `Naumov/Color_JPL`.
pub fn naumov_jpl(g: &Csr, seed: u64) -> ColoringResult {
    let dev = Device::k40c();
    jpl_on(&dev, g, seed)
}

/// `Naumov/Color_JPL` on a provided device (frontier-compacted: each
/// iteration's kernel launches over the uncolored set, contracted by a
/// stream compaction whose output length doubles as the convergence
/// test; see [`Shape::Compacted`]).
pub fn jpl_on(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    jpl(dev, g, seed, Shape::Compacted)
}

/// `Naumov/Color_JPL` with the paper's launch shape: every iteration
/// runs over all `n` vertices plus a full-width uncolored count (see
/// [`Shape::FullWidth`]).
pub fn jpl_on_full(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    jpl(dev, g, seed, Shape::FullWidth)
}

fn jpl(dev: &Device, g: &Csr, seed: u64, shape: Shape) -> ColoringResult {
    let n = g.num_vertices();
    let csr = gc_gunrock::DeviceCsr::upload(dev, g);
    let colors = DeviceBuffer::<u32>::zeroed(n);
    dev.reset();

    // The iteration number reseeds the in-register hashes.
    let jpl_kernel = |iteration: u32, frontier: &Frontier| {
        let color = iteration + 1;
        ops::compute(dev, "naumov::jpl_kernel", frontier, |t, v| {
            if t.read(&colors, v as usize) != 0 {
                return;
            }
            t.charge(HASH_CYCLES);
            let kv = key(seed, iteration, 0, v);
            let mut is_max = true;
            let (s, e) = csr.neighbor_range(t, v);
            for slot in s..e {
                let u = csr.neighbor(t, slot);
                // Skip only neighbors colored in *earlier* iterations;
                // a racing write of this iteration's color must still be
                // compared (the same reasoning as Algorithm 5's lines
                // 26-28: the hash comparison is deterministic either way).
                let cu = t.read(&colors, u as usize);
                if cu != 0 && cu != color {
                    continue;
                }
                t.charge(HASH_CYCLES);
                if key(seed, iteration, 0, u) > kv {
                    is_max = false;
                    break;
                }
            }
            if is_max {
                t.write(&colors, v as usize, color);
            }
        });
    };
    let iterations = rounds(dev, shape, "naumov::jpl_round").run(
        n,
        jpl_kernel,
        |t, v| t.read(&colors, v as usize) == 0,
        |_| {},
    );

    ColoringResult::from_device(dev, colors.to_vec(), iterations)
}

/// The round loop both baselines run on.
fn rounds<'d>(dev: &'d Device, shape: Shape, graph: &'static str) -> Rounds<'d> {
    let keep_kernel = match shape {
        Shape::Compacted => "naumov::frontier",
        Shape::FullWidth => "naumov::count_uncolored",
    };
    Rounds::new(dev, shape, graph, keep_kernel)
}

/// Number of hash functions per `Color_CC` iteration.
pub const CC_HASHES: u32 = 6;

/// `Naumov/Color_CC`.
pub fn naumov_cc(g: &Csr, seed: u64) -> ColoringResult {
    let dev = Device::k40c();
    cc_on(&dev, g, seed)
}

/// `Naumov/Color_CC` on a provided device (frontier-compacted; see
/// [`jpl_on`]).
pub fn cc_on(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    cc(dev, g, seed, Shape::Compacted)
}

/// `Naumov/Color_CC` with the paper's launch shape (see
/// [`jpl_on_full`]).
pub fn cc_on_full(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    cc(dev, g, seed, Shape::FullWidth)
}

fn cc(dev: &Device, g: &Csr, seed: u64, shape: Shape) -> ColoringResult {
    let n = g.num_vertices();
    let csr = gc_gunrock::DeviceCsr::upload(dev, g);
    let colors = DeviceBuffer::<u32>::zeroed(n);
    dev.reset();

    // The iteration number reseeds all CC_HASHES hash functions.
    let cc_kernel = |iteration: u32, frontier: &Frontier| {
        let base = iteration * 2 * CC_HASHES;
        ops::compute(dev, "naumov::cc_kernel", frontier, |t, v| {
            if t.read(&colors, v as usize) != 0 {
                return;
            }
            // One neighbor sweep evaluating all hash functions at once,
            // as csrcolor does (compute-heavy, memory traffic unchanged).
            let mut is_max = [true; CC_HASHES as usize];
            let mut is_min = [true; CC_HASHES as usize];
            let mut kv = [0u64; CC_HASHES as usize];
            for (h, k) in kv.iter_mut().enumerate() {
                t.charge(HASH_CYCLES);
                *k = key(seed, iteration, h as u32, v);
            }
            // Full-row scan (no early exit): bulk-billed neighbor run.
            for u in csr.neighbors_seq(t, v) {
                // Skip only neighbors from earlier iterations; this
                // iteration's colors are all > base and stay compared.
                let cu = t.read(&colors, u as usize);
                if cu != 0 && cu <= base {
                    continue;
                }
                for h in 0..CC_HASHES as usize {
                    t.charge(HASH_CYCLES);
                    let ku = key(seed, iteration, h as u32, u);
                    if ku > kv[h] {
                        is_max[h] = false;
                    }
                    if ku < kv[h] {
                        is_min[h] = false;
                    }
                }
            }
            // First satisfied criterion wins; each criterion's set is
            // independent so per-criterion colors never conflict.
            for h in 0..CC_HASHES {
                if is_max[h as usize] {
                    t.write(&colors, v as usize, base + 2 * h + 1);
                    return;
                }
                if is_min[h as usize] {
                    t.write(&colors, v as usize, base + 2 * h + 2);
                    return;
                }
            }
        });
    };

    let iterations = rounds(dev, shape, "naumov::cc_round").run(
        n,
        cc_kernel,
        |t, v| t.read(&colors, v as usize) == 0,
        |_| {},
    );

    ColoringResult::from_device(dev, colors.to_vec(), iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::assert_proper;
    use gc_graph::generators::{complete, cycle, erdos_renyi, grid2d, path, star, Stencil2d};

    #[test]
    fn jpl_colors_fixed_topologies() {
        for g in [path(11), cycle(9), star(16), complete(6)] {
            let r = naumov_jpl(&g, 2);
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn cc_colors_fixed_topologies() {
        for g in [path(11), cycle(9), star(16), complete(6)] {
            let r = naumov_cc(&g, 2);
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn both_color_random_graphs() {
        let g = erdos_renyi(400, 0.02, 6);
        assert_proper(&g, naumov_jpl(&g, 1).coloring.as_slice());
        assert_proper(&g, naumov_cc(&g, 1).coloring.as_slice());
    }

    #[test]
    fn both_color_meshes() {
        let g = grid2d(15, 15, Stencil2d::NinePoint);
        assert_proper(&g, naumov_jpl(&g, 3).coloring.as_slice());
        assert_proper(&g, naumov_cc(&g, 3).coloring.as_slice());
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(200, 0.03, 4);
        assert_eq!(naumov_jpl(&g, 9).coloring, naumov_jpl(&g, 9).coloring);
        assert_eq!(naumov_cc(&g, 9).coloring, naumov_cc(&g, 9).coloring);
    }

    #[test]
    fn cc_runs_fewer_iterations_than_jpl() {
        let g = erdos_renyi(600, 0.02, 7);
        let jpl = naumov_jpl(&g, 3);
        let cc = naumov_cc(&g, 3);
        assert!(
            cc.iterations < jpl.iterations,
            "CC {} vs JPL {}",
            cc.iterations,
            jpl.iterations
        );
    }

    #[test]
    fn cc_uses_more_colors_than_jpl() {
        let g = grid2d(25, 25, Stencil2d::FivePoint);
        let jpl = naumov_jpl(&g, 3);
        let cc = naumov_cc(&g, 3);
        assert!(
            cc.num_colors > jpl.num_colors,
            "CC {} vs JPL {}",
            cc.num_colors,
            jpl.num_colors
        );
    }

    #[test]
    fn compacted_matches_full_width() {
        for g in [
            erdos_renyi(300, 0.02, 6),
            grid2d(13, 13, Stencil2d::FivePoint),
            star(16),
        ] {
            let dev = Device::k40c;
            let (jc, jf) = (jpl_on(&dev(), &g, 4), jpl_on_full(&dev(), &g, 4));
            assert_eq!(jc.coloring, jf.coloring);
            assert_eq!(jc.iterations, jf.iterations);
            let (cc, cf) = (cc_on(&dev(), &g, 4), cc_on_full(&dev(), &g, 4));
            assert_eq!(cc.coloring, cf.coloring);
            assert_eq!(cc.iterations, cf.iterations);
        }
    }

    #[test]
    fn compacted_replays_one_graph_per_iteration() {
        let g = erdos_renyi(300, 0.02, 6);
        for r in [naumov_jpl(&g, 4), naumov_cc(&g, 4)] {
            let p = r.profile.as_ref().unwrap();
            assert_eq!(p.graph_replays, r.iterations as u64);
            // The color kernel plus the contraction's kernels run inside
            // each replayed graph.
            assert!(p.graph_kernels >= 2 * r.iterations as u64);
        }
    }

    #[test]
    fn cc_is_faster_than_jpl() {
        let g = erdos_renyi(800, 0.01, 5);
        let jpl = naumov_jpl(&g, 3);
        let cc = naumov_cc(&g, 3);
        assert!(
            cc.model_ms < jpl.model_ms,
            "CC {} vs JPL {}",
            cc.model_ms,
            jpl.model_ms
        );
    }
}
