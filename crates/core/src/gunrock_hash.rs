//! `Gunrock/Color_Hash` — Algorithm 6: hash-assisted coloring with
//! conflict resolution and color reuse.
//!
//! Each uncolored vertex *proposes* colors for its uncolored neighbors
//! holding the locally largest and smallest random numbers. The proposal
//! set is not an independent set (each proposer only knows its local
//! topology), so a conflict-resolution operator follows, resetting the
//! lower-random endpoint of every monochromatic edge. A per-vertex hash
//! table of known-prohibited colors lets proposals *reuse* earlier colors
//! instead of always opening new ones — the mechanism that buys the hash
//! implementation its lower color count at the price of two extra
//! operators (and their global synchronizations) per iteration.

use gc_graph::Csr;
use gc_gunrock::{ops, DeviceCsr};
use gc_vgpu::rng::vertex_weight;
use gc_vgpu::{Device, DeviceBuffer, Frontier};

use crate::color::ColoringResult;
use crate::rounds::{Rounds, Shape};

/// Tunables for Algorithm 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashConfig {
    /// Prohibited-color hash-table entries per vertex. The paper: "The
    /// hash table size is a modifiable value, and is inversely related
    /// to the number of conflicts."
    pub hash_size: usize,
}

impl Default for HashConfig {
    fn default() -> Self {
        HashConfig { hash_size: 8 }
    }
}

/// Runs Algorithm 6 on a fresh K40c-model device.
pub fn gunrock_hash(g: &Csr, seed: u64, cfg: HashConfig) -> ColoringResult {
    let dev = Device::k40c();
    run_on(&dev, g, seed, cfg)
}

/// Runs Algorithm 6 on the provided device with the compacted frontier
/// (see [`Shape::Compacted`]): the four operators, the fused
/// contraction and the hash-table generation over the contracted
/// survivors replay as one captured launch graph per iteration, so the
/// fixed launch overhead is paid once per iteration instead of six
/// times.
///
/// Compaction is safe because conflicts only arise between vertices
/// colored in the same iteration — the reuse guard (proposals only trust
/// non-full hash tables) means a proposal never collides with an
/// earlier-iteration color — and all same-iteration colorees are in the
/// frontier. Colorings are identical to [`run_on_full`]'s.
pub fn run_on(dev: &Device, g: &Csr, seed: u64, cfg: HashConfig) -> ColoringResult {
    run(dev, g, seed, cfg, Shape::Compacted)
}

/// Runs Algorithm 6 in the paper's launch shape: every operator over all
/// `n` vertices (see [`Shape::FullWidth`]).
pub fn run_on_full(dev: &Device, g: &Csr, seed: u64, cfg: HashConfig) -> ColoringResult {
    run(dev, g, seed, cfg, Shape::FullWidth)
}

fn run(dev: &Device, g: &Csr, seed: u64, cfg: HashConfig, shape: Shape) -> ColoringResult {
    let n = g.num_vertices();
    let hs = cfg.hash_size;
    let csr = DeviceCsr::upload(dev, g);
    let colors = DeviceBuffer::<u32>::zeroed(n);
    let rand = DeviceBuffer::<u64>::zeroed(n);
    // Per-vertex prohibited-color table, 0 = empty slot.
    let hash = DeviceBuffer::<u32>::zeroed(n * hs);
    let proposal = DeviceBuffer::<u32>::zeroed(n);
    let reset_flags = DeviceBuffer::<u8>::zeroed(n);
    dev.reset();

    dev.launch("hash::init_random", n, |t| {
        let v = t.tid();
        t.charge(12);
        t.write(&rand, v, vertex_weight(seed, v as u32));
    });

    // Propose / apply / detect / resolve — the four operators up to the
    // contraction point.
    let propose_resolve = |iteration: u32, frontier: &Frontier| {
        let color_max = 2 * iteration + 1;
        let color_min = 2 * iteration + 2;
        let used_colors = color_min; // colors 1..=used_colors exist so far

        // --- Hash-coloring proposals (Algorithm 6) ----------------------
        // Proposals go into a separate buffer combined with atomic max
        // (commutative, so the result is independent of thread order);
        // `colors` is read-only in this kernel.
        ops::compute(dev, "hash::color_op", frontier, |t, v| {
            if t.read(&colors, v as usize) != 0 {
                return;
            }
            // Find the uncolored neighbors with the locally largest and
            // smallest random numbers, starting from v itself.
            let rv = t.read(&rand, v as usize);
            let (mut best_max, mut r_max) = (v, rv);
            let (mut best_min, mut r_min) = (v, rv);
            // Full-row scan (no early exit): bulk-billed neighbor run.
            for u in csr.neighbors_seq(t, v) {
                if t.read(&colors, u as usize) != 0 {
                    continue;
                }
                let ru = t.read(&rand, u as usize);
                if ru > r_max {
                    best_max = u;
                    r_max = ru;
                }
                if ru < r_min {
                    best_min = u;
                    r_min = ru;
                }
                t.charge(2);
            }
            // Propose a color for each target: reuse the smallest color
            // not known-prohibited by the target's hash table, otherwise
            // open this iteration's fresh color.
            for (target, fresh) in [(best_max, color_max), (best_min, color_min)] {
                // Read the target's prohibited set into a small bitmask.
                let mut prohibited: u64 = 0;
                let mut filled = 0;
                for slot in 0..hs {
                    let c = t.read(&hash, target as usize * hs + slot);
                    if c != 0 {
                        filled += 1;
                        if c < 64 {
                            prohibited |= 1 << c;
                        }
                    }
                }
                let mut choice = fresh;
                // Reuse only while the table is not full: a full table no
                // longer tracks every neighbor color, and trusting it can
                // re-propose the same conflicting color forever.
                if filled < hs {
                    for c in 1..=used_colors.min(63) {
                        if prohibited & (1 << c) == 0 {
                            choice = c;
                            break;
                        }
                        t.charge(1);
                    }
                }
                t.atomic_max(&proposal, target as usize, choice);
                if best_max == best_min {
                    break; // single candidate (e.g. isolated vertex)
                }
            }
        });

        // --- Apply proposals (after the global synchronization) ---------
        ops::compute(dev, "hash::apply_op", frontier, |t, v| {
            let p = t.read(&proposal, v as usize);
            if p != 0 {
                if t.read(&colors, v as usize) == 0 {
                    t.write(&colors, v as usize, p);
                }
                t.write(&proposal, v as usize, 0);
            }
        });

        // --- Conflict detection (reads only; deterministic) -------------
        ops::compute(dev, "hash::conflict_detect", frontier, |t, v| {
            let cv = t.read(&colors, v as usize);
            t.write(&reset_flags, v as usize, 0);
            if cv == 0 {
                return;
            }
            let rv = t.read(&rand, v as usize);
            let (s, e) = csr.neighbor_range(t, v);
            for slot in s..e {
                let u = csr.neighbor(t, slot);
                let cu = t.read(&colors, u as usize);
                if cu == cv {
                    let ru = t.read(&rand, u as usize);
                    // The lower-random endpoint forfeits (ties cannot
                    // happen: weights are tie-free).
                    if rv < ru {
                        t.write(&reset_flags, v as usize, 1);
                        return;
                    }
                }
                t.charge(1);
            }
        });

        // --- Conflict resolution (apply the reset flags) ----------------
        ops::compute(dev, "hash::conflict_resolve", frontier, |t, v| {
            if t.read(&reset_flags, v as usize) != 0 {
                t.write(&colors, v as usize, 0);
            }
        });
    };

    // --- Hash-table generation ------------------------------------------
    // Each (still-uncolored) vertex records its neighbors' colors in its
    // own table; full tables ignore new colors. Runs after the
    // contraction, so at compacted shape it launches over exactly the
    // survivors.
    let gen_hash = |frontier: &Frontier| {
        ops::compute(dev, "hash::hash_gen", frontier, |t, v| {
            if t.read(&colors, v as usize) != 0 {
                return;
            }
            // Full-row scan (no early exit): bulk-billed neighbor run.
            for u in csr.neighbors_seq(t, v) {
                let cu = t.read(&colors, u as usize);
                if cu == 0 {
                    continue;
                }
                for h in 0..hs {
                    let entry = t.read(&hash, v as usize * hs + h);
                    if entry == cu {
                        break; // already recorded
                    }
                    if entry == 0 {
                        t.write(&hash, v as usize * hs + h, cu);
                        break;
                    }
                }
            }
        });
    };

    let iterations = Rounds::new(dev, shape, "hash::iteration", "hash::check_op").run(
        n,
        propose_resolve,
        |t, v| t.read(&colors, v as usize) == 0,
        gen_hash,
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
        for g in [path(15), cycle(8), cycle(9), star(20), complete(6)] {
            let r = gunrock_hash(&g, 3, HashConfig::default());
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn colors_random_graph() {
        let g = erdos_renyi(400, 0.02, 5);
        let r = gunrock_hash(&g, 9, HashConfig::default());
        assert_proper(&g, r.coloring.as_slice());
    }

    #[test]
    fn colors_mesh() {
        let g = grid2d(16, 16, Stencil2d::NinePoint);
        let r = gunrock_hash(&g, 1, HashConfig::default());
        assert_proper(&g, r.coloring.as_slice());
    }

    #[test]
    fn complete_graph_needs_n() {
        let g = complete(5);
        let r = gunrock_hash(&g, 2, HashConfig::default());
        assert_eq!(r.num_colors, 5);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4);
        let r = gunrock_hash(&g, 0, HashConfig::default());
        assert_proper(&g, r.coloring.as_slice());
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(300, 0.03, 7);
        let a = gunrock_hash(&g, 5, HashConfig::default());
        let b = gunrock_hash(&g, 5, HashConfig::default());
        assert_eq!(a.coloring, b.coloring);
    }

    #[test]
    fn reuse_beats_is_on_color_count() {
        // The paper: hashing trades runtime for fewer colors than IS.
        let g = erdos_renyi(600, 0.02, 13);
        let hash = gunrock_hash(&g, 3, HashConfig::default());
        let is = gunrock_is::gunrock_is(&g, 3, IsConfig::min_max());
        assert!(
            hash.num_colors <= is.num_colors,
            "hash {} vs IS {}",
            hash.num_colors,
            is.num_colors
        );
    }

    #[test]
    fn hash_is_slower_than_is_in_model_time() {
        // The paper's claim — hashing's two extra operators (and their
        // synchronizations) per iteration cost runtime — is about the
        // launch-per-operator shape, so compare the uncaptured
        // full-width arms; the captured pipelines amortize exactly the
        // overhead the claim rests on.
        let g = erdos_renyi(600, 0.02, 13);
        let hash = run_on_full(&Device::k40c(), &g, 3, HashConfig::default());
        let is = gunrock_is::run_on_full(&Device::k40c(), &g, 3, IsConfig::min_max());
        assert!(
            hash.model_ms > is.model_ms,
            "hash {} vs IS {}",
            hash.model_ms,
            is.model_ms
        );
    }

    #[test]
    fn compacted_matches_full_width() {
        for g in [
            erdos_renyi(300, 0.02, 5),
            grid2d(14, 14, Stencil2d::NinePoint),
            star(21),
            complete(6),
        ] {
            let compacted = gunrock_hash(&g, 9, HashConfig::default());
            let full = run_on_full(&Device::k40c(), &g, 9, HashConfig::default());
            assert_eq!(compacted.coloring, full.coloring);
            assert_eq!(compacted.iterations, full.iterations);
            assert!(compacted.kernel_launches <= full.kernel_launches);
        }
    }

    #[test]
    fn replays_one_graph_per_iteration() {
        let g = erdos_renyi(300, 0.02, 5);
        let r = gunrock_hash(&g, 9, HashConfig::default());
        let p = r.profile.as_ref().unwrap();
        assert_eq!(p.graph_replays, r.iterations as u64);
        // Five operators + the contraction's kernels run inside each
        // replayed graph.
        assert!(p.graph_kernels >= 5 * r.iterations as u64);
        assert!(p.launch_overhead_saved_cycles > 0.0);
    }

    #[test]
    fn larger_hash_table_never_hurts_validity() {
        let g = erdos_renyi(300, 0.03, 2);
        for hs in [1, 2, 4, 16] {
            let r = gunrock_hash(&g, 1, HashConfig { hash_size: hs });
            assert_proper(&g, r.coloring.as_slice());
        }
    }
}
