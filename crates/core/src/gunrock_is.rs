//! `Gunrock/Color_IS` — Algorithm 5: independent-set coloring with the
//! min-max optimization.
//!
//! Every iteration, a compute operator assigns each active thread one
//! uncolored vertex, which serially scans its neighbor list comparing
//! pre-assigned random numbers. A vertex that holds the largest number
//! among its relevant neighbors joins the max independent set (color
//! `2·iteration + 1`); with the min-max optimization the smallest joins
//! the min set (color `2·iteration + 2`) — two colors per iteration for
//! free, the paper's headline optimization ("reduces the coloring time
//! almost by half").
//!
//! The neighbor filter follows Algorithm 5 lines 26–28 exactly: neighbors
//! colored in *earlier* iterations are skipped; neighbors holding this
//! iteration's two colors are still compared, which is what makes the
//! kernel correct without atomics — whether a racing write to `C[u]` is
//! observed or not, the comparison outcome is the same because the
//! random numbers are tie-free.

use gc_graph::Csr;
use gc_gunrock::{ops, DeviceCsr};
use gc_vgpu::rng::vertex_weight;
use gc_vgpu::{Device, DeviceBuffer, Frontier};

use crate::color::ColoringResult;
use crate::reduce::Forbidden;
use crate::rounds::{Rounds, Shape};

/// How per-vertex priorities are generated.
///
/// `Random` is the paper's choice. `LargestDegreeFirst` is its §VI
/// future-work hypothesis: *"with power law graphs, it is possible that
/// a random weight initialization would perform worse than largest-
/// degree first, because random weight initialization will make it more
/// likely a node with few neighbors is colored rather than a node with
/// many neighbors"* — the ablation harness tests exactly this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WeightMode {
    /// Luby's Monte-Carlo random priorities.
    #[default]
    Random,
    /// Degree in the high bits, hash tie-break below, id at the bottom
    /// (still tie-free).
    LargestDegreeFirst,
}

/// Variant knobs for Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsConfig {
    /// Color both a max and a min set per iteration.
    pub min_max: bool,
    /// Claim colors with `atomicCAS` instead of plain stores.
    pub use_atomics: bool,
    /// Priority generation scheme.
    pub weight_mode: WeightMode,
    /// Replace the serial per-thread neighbor loop with the
    /// warp-cooperative neighbor reduction — the load-balancing remedy
    /// for the paper's high-degree (af_shell3) pathology, at the price
    /// of extra kernels per iteration.
    pub load_balance: bool,
    /// Quality tier (Chen et al.): *short-cutting*. Winners first-fit
    /// into the lowest color legal for their whole neighborhood instead
    /// of taking this round's fixed color index. The winner sets are
    /// identical to the round-indexed variant's (selection is split
    /// into its own flag-writing kernel, so every color read is
    /// stable), which bounds the result at the round-indexed color
    /// count — usually well under it, because first-fit refills the low
    /// classes every round. Costs one extra kernel per iteration.
    pub short_cutting: bool,
}

impl Default for IsConfig {
    fn default() -> Self {
        // The paper's best Gunrock variant: min-max, no atomics.
        IsConfig {
            min_max: true,
            use_atomics: false,
            weight_mode: WeightMode::Random,
            load_balance: false,
            short_cutting: false,
        }
    }
}

impl IsConfig {
    /// Table II row "Independent Set with Atomics".
    pub fn single_set_atomics() -> Self {
        IsConfig {
            min_max: false,
            use_atomics: true,
            ..Default::default()
        }
    }

    /// Table II row "Independent Set without Atomics".
    pub fn single_set_no_atomics() -> Self {
        IsConfig {
            min_max: false,
            use_atomics: false,
            ..Default::default()
        }
    }

    /// Table II row "Min-Max Independent Set".
    pub fn min_max() -> Self {
        Self::default()
    }

    /// The §VI future-work variant: largest-degree-first priorities.
    pub fn largest_degree_first() -> Self {
        IsConfig {
            weight_mode: WeightMode::LargestDegreeFirst,
            ..Default::default()
        }
    }

    /// Quality tier: min-max IS with short-cutting (first-fit commits).
    /// Registered as `Gunrock/Color_IS_SC`.
    pub fn short_cut() -> Self {
        IsConfig {
            short_cutting: true,
            ..Default::default()
        }
    }

    /// Warp-cooperative (load-balanced) min-max IS.
    pub fn min_max_load_balanced() -> Self {
        IsConfig {
            load_balance: true,
            ..Default::default()
        }
    }
}

/// Runs Algorithm 5 on a fresh K40c-model device.
///
/// ```
/// use gc_core::gunrock_is::{gunrock_is, IsConfig};
/// use gc_core::verify::assert_proper;
/// use gc_graph::generators::grid2d;
/// use gc_graph::generators::Stencil2d;
///
/// let g = grid2d(16, 16, Stencil2d::FivePoint);
/// let r = gunrock_is(&g, 42, IsConfig::min_max());
/// assert_proper(&g, r.coloring.as_slice());
/// assert!(r.num_colors >= 2);
/// assert!(r.model_ms > 0.0);
/// ```
pub fn gunrock_is(g: &Csr, seed: u64, cfg: IsConfig) -> ColoringResult {
    let dev = Device::k40c();
    run_on(&dev, g, seed, cfg)
}

/// Runs Algorithm 5 on the provided device (model time = device clock
/// delta; graph upload and result download are outside the timed span,
/// as in the paper's methodology) with the compacted frontier: each
/// round's color kernel(s) and the fused contraction are captured once
/// and replayed over the still-uncolored vertices (see
/// [`Shape::Compacted`]). Colorings are identical to [`run_on_full`]'s —
/// the kernels early-return on colored vertices, so restricting the
/// launch to the uncolored set removes only no-op threads.
pub fn run_on(dev: &Device, g: &Csr, seed: u64, cfg: IsConfig) -> ColoringResult {
    run(dev, g, seed, cfg, Shape::Compacted)
}

/// Runs Algorithm 5 in the paper's launch shape: every kernel over all
/// `n` vertices, one dispatch each, and a full-width uncolored count
/// (see [`Shape::FullWidth`]).
pub fn run_on_full(dev: &Device, g: &Csr, seed: u64, cfg: IsConfig) -> ColoringResult {
    run(dev, g, seed, cfg, Shape::FullWidth)
}

fn run(dev: &Device, g: &Csr, seed: u64, cfg: IsConfig, shape: Shape) -> ColoringResult {
    let n = g.num_vertices();
    let csr = DeviceCsr::upload(dev, g);
    let colors = DeviceBuffer::<u32>::zeroed(n);
    let rand = DeviceBuffer::<u64>::zeroed(n);
    // Winner flags of the short-cutting path (1 = max set, 2 = min set).
    let winner = DeviceBuffer::<u32>::zeroed(n);
    dev.reset();

    // Initialize R <- generateRandomNumbers (or degree-based priority).
    match cfg.weight_mode {
        WeightMode::Random => dev.launch("is::init_random", n, |t| {
            let v = t.tid();
            t.charge(12); // hash computation
            t.write(&rand, v, vertex_weight(seed, v as u32));
        }),
        WeightMode::LargestDegreeFirst => dev.launch("is::init_degree", n, |t| {
            let v = t.tid();
            let d = (csr.degree(t, v as u32) as u64).min(0xffff);
            t.charge(12);
            let hash_bits = (vertex_weight(seed, v as u32) >> 48) & 0xffff;
            t.write(&rand, v, (d << 48) | (hash_bits << 32) | v as u64);
        }),
    }

    // The round's color kernels; the loop contracts the frontier to the
    // still-uncolored vertices after them.
    let issue_color = |iteration: u32, frontier: &Frontier| {
        let base = if cfg.min_max {
            2 * iteration
        } else {
            iteration
        };
        let color_max = base + 1;
        let color_min = base + 2;

        if cfg.short_cutting {
            // Short-cutting: the same winner election as the serial
            // path below, split into a flag-writing select kernel (no
            // color writes, so every color read is stable) and per-set
            // first-fit commit kernels. Each winner set is independent
            // (tie-free priorities), so one commit kernel's threads
            // never write each other's neighborhoods; minima commit
            // after maxima so an adjacent max-winner's fresh color is
            // forbidden to them.
            ops::compute(dev, "is::sc_select", frontier, |t, v| {
                if t.read(&colors, v as usize) != 0 {
                    t.write(&winner, v as usize, 0);
                    return;
                }
                let rv = t.read(&rand, v as usize);
                let mut is_max = true;
                let mut is_min = cfg.min_max;
                let (s, e) = csr.neighbor_range(t, v);
                for slot in s..e {
                    let u = csr.neighbor(t, slot);
                    if t.read(&colors, u as usize) != 0 {
                        continue; // out of the competition for good
                    }
                    let ru = t.read(&rand, u as usize);
                    if rv <= ru {
                        is_max = false;
                    }
                    if rv >= ru {
                        is_min = false;
                    }
                    t.charge(2);
                    if !is_max && !is_min {
                        break;
                    }
                }
                let flag = if is_max {
                    1
                } else if is_min {
                    2
                } else {
                    0
                };
                t.write(&winner, v as usize, flag);
            });
            let commit = |name: &str, flag: u32| {
                ops::compute(dev, name, frontier, |t, v| {
                    if t.read(&winner, v as usize) != flag || t.read(&colors, v as usize) != 0 {
                        return;
                    }
                    // A billed row-extent read: on hardware it sizes the
                    // thread's local scratch.
                    let _ = csr.neighbor_range(t, v);
                    let mut forbidden = Forbidden::new();
                    for u in csr.neighbors_seq(t, v) {
                        let cu = t.read(&colors, u as usize);
                        if cu != 0 {
                            forbidden.push(cu);
                        }
                    }
                    t.write(&colors, v as usize, forbidden.mex());
                });
            };
            commit("is::sc_commit_max", 1);
            if cfg.min_max {
                commit("is::sc_commit_min", 2);
            }
        } else if cfg.load_balance {
            // Warp-cooperative path: reduce (max, min) of uncolored
            // neighbors' priorities in one balanced pass, then color in
            // a follow-up kernel. More launches, shorter critical path.
            // Like the paper's AR note ("one for max reduction, one for
            // min reduction"), the two set criteria need separate
            // reduction passes.
            let nmax = ops::neighbor_reduce_warp(
                dev,
                "is::lb_max",
                &csr,
                frontier,
                0u64,
                |t, _src, dst| {
                    if t.read(&colors, dst as usize) == 0 {
                        t.read(&rand, dst as usize)
                    } else {
                        0
                    }
                },
                u64::max,
            );
            let nmin = if cfg.min_max {
                Some(ops::neighbor_reduce_warp(
                    dev,
                    "is::lb_min",
                    &csr,
                    frontier,
                    u64::MAX,
                    |t, _src, dst| {
                        if t.read(&colors, dst as usize) == 0 {
                            t.read(&rand, dst as usize)
                        } else {
                            u64::MAX
                        }
                    },
                    u64::min,
                ))
            } else {
                None
            };
            // The reductions are frontier-aligned, so the color kernel
            // indexes them by frontier position (== vertex id only when
            // the frontier is the dense identity).
            ops::compute(dev, "is::lb_color_op", frontier, |t, v| {
                if t.read(&colors, v as usize) != 0 {
                    return;
                }
                let i = t.tid();
                let rv = t.read(&rand, v as usize);
                if rv > t.read(&nmax, i) {
                    t.write(&colors, v as usize, color_max);
                }
                if let Some(nmin) = &nmin {
                    if rv < t.read(nmin, i) {
                        t.write(&colors, v as usize, color_min);
                    }
                }
            });
        } else {
            ops::compute(dev, "is::color_op", frontier, |t, v| {
                if t.read(&colors, v as usize) != 0 {
                    return;
                }
                let rv = t.read(&rand, v as usize);
                let mut is_max = true;
                let mut is_min = cfg.min_max;
                let (s, e) = csr.neighbor_range(t, v);
                for slot in s..e {
                    let u = csr.neighbor(t, slot);
                    let cu = t.read(&colors, u as usize);
                    if cu != 0 && cu != color_max && cu != color_min {
                        continue; // colored in a previous iteration
                    }
                    let ru = t.read(&rand, u as usize);
                    if rv <= ru {
                        is_max = false;
                    }
                    if rv >= ru {
                        is_min = false;
                    }
                    t.charge(2);
                    if !is_max && !is_min {
                        break;
                    }
                }
                // Two independent ifs, as in Algorithm 5 lines 37-42 (a
                // vertex that is both — no comparable neighbor — ends at
                // the min color).
                if is_max {
                    if cfg.use_atomics {
                        t.atomic_cas(&colors, v as usize, 0, color_max);
                    } else {
                        t.write(&colors, v as usize, color_max);
                    }
                }
                if is_min {
                    if cfg.use_atomics {
                        t.atomic_exchange(&colors, v as usize, color_min);
                    } else {
                        t.write(&colors, v as usize, color_min);
                    }
                }
            });
        }
    };

    let iterations = Rounds::new(dev, shape, "is::iteration", "is::check_op").run(
        n,
        issue_color,
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

    fn check_all_variants(g: &Csr) {
        for cfg in [
            IsConfig::min_max(),
            IsConfig::single_set_atomics(),
            IsConfig::single_set_no_atomics(),
        ] {
            let r = gunrock_is(g, 7, cfg);
            assert_proper(g, r.coloring.as_slice());
        }
    }

    #[test]
    fn colors_fixed_topologies() {
        check_all_variants(&path(17));
        check_all_variants(&cycle(9));
        check_all_variants(&star(12));
        check_all_variants(&complete(7));
    }

    #[test]
    fn colors_random_graph() {
        let g = erdos_renyi(400, 0.02, 3);
        check_all_variants(&g);
    }

    #[test]
    fn colors_mesh() {
        let g = grid2d(20, 20, Stencil2d::FivePoint);
        let r = gunrock_is(&g, 1, IsConfig::min_max());
        assert_proper(&g, r.coloring.as_slice());
        // A 5-point mesh is sparse; IS coloring should stay modest.
        assert!(r.num_colors <= 12, "used {} colors", r.num_colors);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = complete(6);
        let r = gunrock_is(&g, 5, IsConfig::min_max());
        assert_eq!(r.num_colors, 6);
    }

    #[test]
    fn empty_and_isolated() {
        let g = Csr::empty(5);
        let r = gunrock_is(&g, 0, IsConfig::min_max());
        assert_proper(&g, r.coloring.as_slice());
        // Isolated vertices are both local max and local min; per
        // Algorithm 5 the min assignment lands last, so all share one color.
        assert_eq!(r.num_colors, 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = erdos_renyi(200, 0.03, 11);
        let a = gunrock_is(&g, 42, IsConfig::min_max());
        let b = gunrock_is(&g, 42, IsConfig::min_max());
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.model_ms, b.model_ms);
    }

    #[test]
    fn seeds_change_coloring() {
        let g = erdos_renyi(200, 0.03, 11);
        let a = gunrock_is(&g, 1, IsConfig::min_max());
        let b = gunrock_is(&g, 2, IsConfig::min_max());
        assert_ne!(a.coloring, b.coloring);
    }

    #[test]
    fn min_max_halves_iterations() {
        let g = erdos_renyi(500, 0.02, 9);
        let single = gunrock_is(&g, 3, IsConfig::single_set_no_atomics());
        let minmax = gunrock_is(&g, 3, IsConfig::min_max());
        assert!(
            (minmax.iterations as f64) < 0.75 * single.iterations as f64,
            "min-max {} vs single {}",
            minmax.iterations,
            single.iterations
        );
    }

    #[test]
    fn min_max_is_faster_in_model_time() {
        let g = erdos_renyi(800, 0.01, 4);
        let single = gunrock_is(&g, 3, IsConfig::single_set_no_atomics());
        let minmax = gunrock_is(&g, 3, IsConfig::min_max());
        assert!(minmax.model_ms < single.model_ms);
    }

    #[test]
    fn atomics_cost_more_than_plain_stores() {
        let g = erdos_renyi(800, 0.01, 4);
        let with = gunrock_is(&g, 3, IsConfig::single_set_atomics());
        let without = gunrock_is(&g, 3, IsConfig::single_set_no_atomics());
        // Same algorithm, same coloring, different claim mechanism.
        assert_eq!(with.coloring, without.coloring);
        assert!(with.model_ms > without.model_ms);
    }

    #[test]
    fn load_balanced_variant_is_proper_everywhere() {
        for g in [
            path(17),
            cycle(9),
            star(30),
            complete(7),
            erdos_renyi(300, 0.03, 4),
            grid2d(14, 14, Stencil2d::NinePoint),
        ] {
            let r = gunrock_is(&g, 7, IsConfig::min_max_load_balanced());
            assert_proper(&g, r.coloring.as_slice());
        }
    }

    #[test]
    fn load_balanced_variant_is_deterministic() {
        let g = erdos_renyi(200, 0.04, 1);
        let a = gunrock_is(&g, 3, IsConfig::min_max_load_balanced());
        let b = gunrock_is(&g, 3, IsConfig::min_max_load_balanced());
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.model_ms, b.model_ms);
    }

    #[test]
    fn load_balancing_costs_more_kernels() {
        // Both variants replay one launch graph per iteration, so the
        // dispatch count no longer separates them — the kernels *inside*
        // each replayed graph do.
        let g = erdos_renyi(300, 0.02, 5);
        let lb = gunrock_is(&g, 2, IsConfig::min_max_load_balanced());
        let tm = gunrock_is(&g, 2, IsConfig::min_max());
        let lb_rate = lb.profile.as_ref().unwrap().graph_kernels as f64 / lb.iterations as f64;
        let tm_rate = tm.profile.as_ref().unwrap().graph_kernels as f64 / tm.iterations as f64;
        assert!(lb_rate > tm_rate, "{lb_rate} vs {tm_rate}");
    }

    #[test]
    fn largest_degree_first_variant_is_proper() {
        let g = gc_graph::generators::barabasi_albert(400, 3, 2);
        let r = gunrock_is(&g, 7, IsConfig::largest_degree_first());
        assert_proper(&g, r.coloring.as_slice());
    }

    #[test]
    fn ldf_colors_hubs_early_on_power_law() {
        // The paper's §VI hypothesis: degree priorities color the hubs
        // first. The highest-degree vertex must land in the very first
        // max set (color 1).
        let g = gc_graph::generators::barabasi_albert(400, 3, 2);
        let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        let r = gunrock_is(&g, 7, IsConfig::largest_degree_first());
        assert_eq!(r.coloring.color(hub), 1);
    }

    #[test]
    fn reports_launches_and_time() {
        let g = path(50);
        let r = gunrock_is(&g, 0, IsConfig::min_max());
        // One graph replay (= one dispatch) per iteration plus init;
        // the replayed graphs carry at least two kernels per iteration
        // (color + contraction).
        assert!(r.kernel_launches > r.iterations as u64);
        let p = r.profile.as_ref().unwrap();
        assert_eq!(p.graph_replays, r.iterations as u64);
        assert!(p.graph_kernels >= 2 * r.iterations as u64);
        assert!(p.launch_overhead_saved_cycles > 0.0);
        assert!(r.model_ms > 0.0);
    }

    #[test]
    fn short_cutting_is_proper_and_never_worse_than_round_indexed() {
        for g in [
            path(17),
            cycle(9),
            star(30),
            complete(7),
            erdos_renyi(400, 0.02, 3),
            grid2d(14, 14, Stencil2d::NinePoint),
        ] {
            let sc = gunrock_is(&g, 7, IsConfig::short_cut());
            assert_proper(&g, sc.coloring.as_slice());
            let ri = gunrock_is(&g, 7, IsConfig::min_max());
            assert!(
                sc.num_colors <= ri.num_colors,
                "short-cut {} colors vs round-indexed {}",
                sc.num_colors,
                ri.num_colors
            );
            // Same winner sets, same rounds.
            assert_eq!(sc.iterations, ri.iterations);
        }
    }

    #[test]
    fn short_cutting_beats_round_indexing_on_sparse_graphs() {
        // On a sparse mesh the round-indexed variant burns ~2 colors
        // per round; first-fit refills the low classes instead.
        let g = grid2d(24, 24, Stencil2d::FivePoint);
        let sc = gunrock_is(&g, 11, IsConfig::short_cut());
        let ri = gunrock_is(&g, 11, IsConfig::min_max());
        assert!(
            sc.num_colors < ri.num_colors,
            "short-cut {} vs round-indexed {}",
            sc.num_colors,
            ri.num_colors
        );
    }

    #[test]
    fn short_cutting_is_deterministic() {
        let g = erdos_renyi(300, 0.03, 8);
        let a = gunrock_is(&g, 4, IsConfig::short_cut());
        let b = gunrock_is(&g, 4, IsConfig::short_cut());
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.model_ms, b.model_ms);
    }

    #[test]
    fn short_cutting_compacted_matches_full_width() {
        let g = erdos_renyi(250, 0.03, 6);
        let compacted = gunrock_is(&g, 2, IsConfig::short_cut());
        let full = run_on_full(&Device::k40c(), &g, 2, IsConfig::short_cut());
        assert_eq!(compacted.coloring, full.coloring);
        assert_eq!(compacted.iterations, full.iterations);
    }

    #[test]
    fn compacted_matches_full_width() {
        for g in [
            erdos_renyi(300, 0.02, 5),
            grid2d(14, 14, Stencil2d::NinePoint),
            star(21),
            complete(6),
        ] {
            let compacted = gunrock_is(&g, 9, IsConfig::min_max());
            let full = run_on_full(&Device::k40c(), &g, 9, IsConfig::min_max());
            assert_eq!(compacted.coloring, full.coloring);
            assert_eq!(compacted.iterations, full.iterations);
            // The captured path must never dispatch more than the
            // uncaptured full-width baseline.
            assert!(compacted.kernel_launches <= full.kernel_launches);
        }
    }
}
