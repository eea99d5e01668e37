//! Gebremedhin-Manne speculative greedy coloring on the GPU — the
//! paper's first future-work direction ("A possible future research
//! direction would be to compare these algorithms with
//! Gebremedhin-Manne on the GPU").
//!
//! The Gebremedhin-Manne scheme has three phases, iterated to a fixed
//! point:
//!
//! 1. **Speculative coloring** — every uncolored vertex greedily takes
//!    the minimum color absent from its (possibly stale) view of its
//!    neighbors, all in parallel;
//! 2. **Conflict detection** — both endpoints of a monochromatic edge
//!    cannot stand; the lower-priority endpoint is flagged;
//! 3. **Conflict resolution** — flagged vertices are uncolored and try
//!    again next round (Gebremedhin-Manne resolve serially on the CPU;
//!    on the GPU re-running the speculative phase converges in a few
//!    rounds because conflicts only occur on simultaneously-colored
//!    neighbors).
//!
//! Because the speculative phase always picks *minimum* available
//! colors, the result has greedy-like quality at independent-set-like
//! speed — which is why the paper flags it as promising.

use gc_graph::Csr;
use gc_gunrock::{ops, DeviceCsr};
use gc_vgpu::rng::vertex_weight;
use gc_vgpu::{Device, DeviceBuffer, Frontier};

use crate::color::ColoringResult;
use crate::rounds::{Rounds, Shape};

/// Colors representable in the in-register forbidden bitmask; rarely
/// exceeded (quality is greedy-like, so colors ≈ Δ-ish small numbers).
const MASK_COLORS: u32 = 63;

/// Runs GPU Gebremedhin-Manne on a fresh K40c-model device.
pub fn gebremedhin_manne(g: &Csr, seed: u64) -> ColoringResult {
    let dev = Device::k40c();
    run_on(&dev, g, seed)
}

/// Runs GPU Gebremedhin-Manne on the provided device, full width: every
/// phase spans all `n` vertices each round (see [`Shape::FullWidth`]).
pub fn run_on(dev: &Device, g: &Csr, seed: u64) -> ColoringResult {
    let n = g.num_vertices();
    let csr = DeviceCsr::upload(dev, g);
    let colors = DeviceBuffer::<u32>::zeroed(n);
    let proposals = DeviceBuffer::<u32>::zeroed(n);
    let rand = DeviceBuffer::<u64>::zeroed(n);
    let reset = DeviceBuffer::<u8>::zeroed(n);
    dev.reset();

    dev.launch("gm::init_random", n, |t| {
        let v = t.tid();
        t.charge(12);
        t.write(&rand, v, vertex_weight(seed, v as u32));
    });

    let round = |_: u32, frontier: &Frontier| {
        // Phase 1: speculative greedy coloring against the committed
        // colors of the previous round (reads `colors`, writes only
        // `proposals` — deterministic).
        ops::compute(dev, "gm::speculate", frontier, |t, v| {
            if t.read(&colors, v as usize) != 0 {
                return;
            }
            let mut forbidden: u64 = 0;
            let mut overflow_base = 0u32;
            // Full-row scan, never exits early: bill the whole neighbor
            // run up front through the bulk fast path.
            for u in csr.neighbors_seq(t, v) {
                let cu = t.read(&colors, u as usize);
                if cu != 0 && cu <= MASK_COLORS {
                    forbidden |= 1 << cu;
                } else if cu > MASK_COLORS {
                    overflow_base = overflow_base.max(cu);
                }
                t.charge(2);
            }
            let mut c = 1u32;
            while c <= MASK_COLORS && forbidden & (1 << c) != 0 {
                c += 1;
                t.charge(1);
            }
            // Bitmask exhausted (only on pathologically dense inputs):
            // fall past every big neighbor color instead.
            if c > MASK_COLORS {
                c = c.max(overflow_base + 1);
            }
            t.write(&proposals, v as usize, c);
        });

        // Commit the proposals.
        ops::compute(dev, "gm::commit", frontier, |t, v| {
            let p = t.read(&proposals, v as usize);
            if p != 0 && t.read(&colors, v as usize) == 0 {
                t.write(&colors, v as usize, p);
            }
            t.write(&proposals, v as usize, 0);
        });

        // Phase 2: conflict detection (reads only; lower priority loses).
        ops::compute(dev, "gm::conflict_detect", frontier, |t, v| {
            t.write(&reset, v as usize, 0);
            let cv = t.read(&colors, v as usize);
            if cv == 0 {
                return;
            }
            let rv = t.read(&rand, v as usize);
            let (s, e) = csr.neighbor_range(t, v);
            for slot in s..e {
                let u = csr.neighbor(t, slot);
                if t.read(&colors, u as usize) == cv && t.read(&rand, u as usize) > rv {
                    t.write(&reset, v as usize, 1);
                    return;
                }
                t.charge(1);
            }
        });

        // Phase 3: conflict resolution.
        ops::compute(dev, "gm::conflict_resolve", frontier, |t, v| {
            if t.read(&reset, v as usize) != 0 {
                t.write(&colors, v as usize, 0);
            }
        });
    };
    let iterations = Rounds::new(dev, Shape::FullWidth, "gm::round", "gm::check").run(
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
    use crate::gblas_is::gblas_is;
    use crate::greedy::{greedy, Ordering};
    use crate::verify::assert_proper;
    use gc_graph::generators::{
        barabasi_albert, complete, cycle, erdos_renyi, grid2d, path, star, Stencil2d,
    };

    #[test]
    fn colors_fixed_topologies() {
        for g in [path(15), cycle(9), star(20), complete(6)] {
            let r = gebremedhin_manne(&g, 3);
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn colors_random_mesh_and_power_law() {
        for g in [
            erdos_renyi(400, 0.02, 5),
            grid2d(16, 16, Stencil2d::NinePoint).clone(),
            barabasi_albert(300, 4, 1),
        ] {
            let r = gebremedhin_manne(&g, 9);
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn quality_is_greedy_like() {
        // Minimum-color speculation should land close to sequential
        // greedy and clearly beat fresh-color-per-iteration Luby IS.
        let g = erdos_renyi(500, 0.03, 2);
        let gm = gebremedhin_manne(&g, 4);
        let gr = greedy(&g, Ordering::Natural, 0);
        let is = gblas_is(&g, 4);
        assert!(
            gm.num_colors <= gr.num_colors + 3,
            "GM {} greedy {}",
            gm.num_colors,
            gr.num_colors
        );
        assert!(
            gm.num_colors < is.num_colors,
            "GM {} IS {}",
            gm.num_colors,
            is.num_colors
        );
    }

    #[test]
    fn converges_in_few_rounds() {
        let g = erdos_renyi(500, 0.03, 2);
        let r = gebremedhin_manne(&g, 4);
        assert!(r.iterations < 30, "{} rounds", r.iterations);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(250, 0.04, 8);
        assert_eq!(
            gebremedhin_manne(&g, 1).coloring,
            gebremedhin_manne(&g, 1).coloring
        );
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(7);
        let r = gebremedhin_manne(&g, 0);
        assert_proper(&g, r.coloring.as_slice());
        assert_eq!(r.num_colors, 1);
    }

    #[test]
    fn dense_graph_exceeding_bitmask() {
        // K_70 forces colors past the 63-bit in-register mask.
        let g = complete(70);
        let r = gebremedhin_manne(&g, 5);
        assert_proper(&g, r.coloring.as_slice());
        assert_eq!(r.num_colors, 70);
    }
}
