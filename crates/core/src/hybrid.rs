//! `Hybrid/Color_JP`: parallel first-fit Jones-Plassmann rounds on
//! device, sequential greedy on the straggler tail.
//!
//! Rai & Pai ("A Hybrid Graph Coloring Algorithm for GPUs") observe
//! that a JP-style parallel pass spends most of its rounds on a
//! shrinking tail of stragglers — the frontier drops geometrically, so
//! the last rounds launch nearly-empty kernels to color a handful of
//! vertices — while a sequential greedy finish of that tail costs one
//! cheap host sweep and, crucially, assigns *first-fit* colors. This
//! colorer combines both regimes:
//!
//! * **Device rounds** run a min-max variant of Jones-Plassmann: each
//!   round draws fresh tie-free random keys and elects two independent
//!   sets at once — local *maxima* and local *minima* among uncolored
//!   neighbors — halving the round count of plain JP. Unlike the
//!   round-indexed Naumov/Gunrock/GraphBLAST colorers, winners take the
//!   **minimum excluded color** of their whole neighborhood (first-fit),
//!   so every assignment is greedy-grade and the result is bounded by
//!   `max_degree + 1` colors. The per-round pipeline (select,
//!   max-assign, fused min-assign + frontier contraction) is captured
//!   once as a launch graph and replayed.
//! * **Host tail** takes over once the frontier drops below
//!   `n / straggler_divisor` (the same tail-cutoff idiom gc-shard uses
//!   for its conflict rounds): one metered device→host download, then a
//!   sequential first-fit sweep billed on the paper's CPU model.
//!
//! Race-safety of the fused round is structural: the select kernel
//! writes no colors (so its "skip colored neighbors" reads are stable);
//! tie-free keys make each winner set an independent set (so mex
//! assignments within one kernel never read each other's writes); and
//! min-winners assign in a *separate* kernel after max-winners commit,
//! because a max-winner and min-winner may be adjacent.
//!
//! ```
//! use gc_core::hybrid::hybrid_jp;
//! use gc_graph::generators::erdos_renyi;
//!
//! let g = erdos_renyi(300, 0.03, 1);
//! let r = hybrid_jp(&g, 42);
//! gc_core::assert_proper(&g, r.coloring.as_slice());
//! assert!(r.num_colors as usize <= g.max_degree() + 1);
//! ```

use gc_graph::Csr;
use gc_gunrock::ops;
use gc_vgpu::rng::uniform_u32;
use gc_vgpu::{Device, DeviceBuffer, Frontier};

use crate::color::ColoringResult;
use crate::cpu_model::CpuModel;
use crate::reduce::mex;
use crate::rounds::{Rounds, Shape};

/// Cycles charged per in-register hash evaluation.
const HASH_CYCLES: u64 = 10;

/// Knobs of the hybrid colorer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridConfig {
    /// Device rounds stop once the uncolored frontier is smaller than
    /// `n / straggler_divisor`; the remainder is colored sequentially
    /// on the host. `1` hands everything to the host after one round;
    /// a huge divisor colors everything on device. The default of `4`
    /// hands off while the tail is still a quarter of the graph: the
    /// late rounds pay ~3 kernel-threads per surviving vertex to retire
    /// only the local extrema, while the host sweep colors the whole
    /// tail in one pass of the CPU model — the crossover the Rai & Pai
    /// hybrid is built around.
    pub straggler_divisor: u32,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            straggler_divisor: 4,
        }
    }
}

/// Tie-free per-round random key: hash in the high bits, vertex id in
/// the low bits (the Naumov in-register trick).
#[inline]
fn key(seed: u64, iteration: u32, v: u32) -> u64 {
    let h = uniform_u32(seed ^ ((iteration as u64) << 32), v);
    ((h as u64) << 32) | v as u64
}

/// `Hybrid/Color_JP` with default knobs on a fresh device.
pub fn hybrid_jp(g: &Csr, seed: u64) -> ColoringResult {
    run_on(&Device::k40c(), g, seed, HybridConfig::default())
}

/// `Hybrid/Color_JP` on a provided device.
pub fn run_on(dev: &Device, g: &Csr, seed: u64, cfg: HybridConfig) -> ColoringResult {
    let n = g.num_vertices();
    let csr = gc_gunrock::DeviceCsr::upload(dev, g);
    let colors = DeviceBuffer::<u32>::zeroed(n);
    let winner = DeviceBuffer::<u32>::zeroed(n);
    dev.reset();

    // First-fit assignment: smallest color absent from the *entire*
    // neighborhood. Winner sets are independent sets, so concurrent
    // threads of one launch never write a neighbor of each other, and
    // re-evaluation (the fused filter's rank pre-pass) recomputes the
    // identical mex — the idempotence the compaction contract requires.
    let assign_mex = |t: &mut gc_vgpu::ThreadCtx, v: u32| {
        let (s, e) = csr.neighbor_range(t, v);
        let mut forbidden: Vec<u32> = Vec::with_capacity(e - s);
        for u in csr.neighbors_seq(t, v) {
            let cu = t.read(&colors, u as usize);
            if cu != 0 {
                forbidden.push(cu);
            }
        }
        t.write(&colors, v as usize, mex(&mut forbidden));
    };

    // One device round: elect both winner sets and commit maxima; the
    // loop's contraction then commits minima.
    let round = |r: u32, frontier: &Frontier| {
        // Select: flags only, no color writes, so every color read in
        // this kernel is stable and the winner sets are deterministic.
        ops::compute(dev, "hybrid::select", frontier, |t, v| {
            t.charge(HASH_CYCLES);
            let kv = key(seed, r, v);
            let mut is_max = true;
            let mut is_min = true;
            let (s, e) = csr.neighbor_range(t, v);
            for slot in s..e {
                let u = csr.neighbor(t, slot);
                // Colored neighbors no longer compete for a color.
                let cu = t.read(&colors, u as usize);
                if cu != 0 {
                    continue;
                }
                t.charge(HASH_CYCLES);
                let ku = key(seed, r, u);
                if ku > kv {
                    is_max = false;
                }
                if ku < kv {
                    is_min = false;
                }
                if !is_max && !is_min {
                    break;
                }
            }
            // An isolated straggler (all neighbors colored) is both; it
            // joins the max set.
            let flag = if is_max {
                1
            } else if is_min {
                2
            } else {
                0
            };
            t.write(&winner, v as usize, flag);
        });
        ops::compute(dev, "hybrid::assign_max", frontier, |t, v| {
            if t.read(&winner, v as usize) == 1 {
                assign_mex(t, v);
            }
        });
    };
    // Min-winners commit *after* the max kernel so an adjacent
    // max-winner's fresh color lands in their forbidden set; fusing the
    // assignment into the contraction saves the fourth kernel. The loop
    // stops once fewer than n / straggler_divisor vertices survive.
    let iterations = Rounds::new(dev, Shape::Compacted, "hybrid::round", "hybrid::assign_min")
        .stop_below(n / cfg.straggler_divisor.max(1) as usize)
        .run(
            n,
            round,
            |t, v| {
                if t.read(&winner, v as usize) == 2 {
                    assign_mex(t, v);
                    return false;
                }
                t.read(&colors, v as usize) == 0
            },
            |_| {},
        );

    // Straggler tail: one metered download, then sequential first-fit
    // in ascending vertex order, billed on the paper's CPU model.
    let mut host_colors = dev.download(&colors);
    let mut tail_span = gc_telemetry::span("hybrid_tail");
    let mut tail_vertices = 0u64;
    let mut edge_visits = 0u64;
    let mut forbidden: Vec<u32> = Vec::new();
    for v in 0..n {
        if host_colors[v] != 0 {
            continue;
        }
        tail_vertices += 1;
        forbidden.clear();
        for &u in g.neighbors(v as u32) {
            edge_visits += 1;
            if host_colors[u as usize] != 0 {
                forbidden.push(host_colors[u as usize]);
            }
        }
        host_colors[v] = mex(&mut forbidden);
    }
    let tail_ms = CpuModel::xeon_e5().time_ms(tail_vertices, edge_visits);
    if tail_span.is_recording() {
        tail_span.attr("tail_vertices", tail_vertices);
        tail_span.attr("edge_visits", edge_visits);
    }
    drop(tail_span);

    let mut result = ColoringResult::from_device(dev, host_colors, iterations);
    result.model_ms += tail_ms;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_proper;
    use gc_graph::generators::{complete, cycle, erdos_renyi, path, star};

    fn check(g: &Csr, seed: u64) -> ColoringResult {
        let r = hybrid_jp(g, seed);
        assert!(is_proper(g, r.coloring.as_slice()).is_ok());
        assert!(
            r.num_colors as usize <= g.max_degree() + 1,
            "{} colors on max degree {}",
            r.num_colors,
            g.max_degree()
        );
        r
    }

    #[test]
    fn colors_standard_shapes() {
        check(&path(17), 1);
        check(&cycle(16), 2);
        check(&star(33), 3);
        let r = check(&complete(8), 4);
        assert_eq!(r.num_colors, 8);
    }

    #[test]
    fn colors_random_graphs_first_fit_tight() {
        let g = erdos_renyi(600, 0.01, 5);
        let r = check(&g, 42);
        // First-fit mex assignment should land well under the
        // round-indexed colorers' counts; the greedy bound above is the
        // hard guarantee, this asserts the quality intent on a known
        // seed.
        let greedy = crate::greedy::greedy(&g, crate::greedy::Ordering::Natural, 42);
        assert!(
            r.num_colors <= greedy.num_colors + 2,
            "hybrid {} vs greedy {}",
            r.num_colors,
            greedy.num_colors
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = erdos_renyi(400, 0.02, 9);
        let a = hybrid_jp(&g, 7);
        let b = hybrid_jp(&g, 7);
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.model_ms, b.model_ms);
    }

    #[test]
    fn divisor_one_is_almost_all_host() {
        // After a single device round, everything left goes to the host
        // tail; the result must still be proper and greedy-bounded.
        let g = erdos_renyi(300, 0.03, 2);
        let cfg = HybridConfig {
            straggler_divisor: 1,
        };
        let r = run_on(&Device::k40c(), &g, 11, cfg);
        assert!(is_proper(&g, r.coloring.as_slice()).is_ok());
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn huge_divisor_colors_everything_on_device() {
        let g = erdos_renyi(200, 0.04, 3);
        let cfg = HybridConfig {
            straggler_divisor: u32::MAX,
        };
        let r = run_on(&Device::k40c(), &g, 11, cfg);
        assert!(is_proper(&g, r.coloring.as_slice()).is_ok());
        // cutoff is 0, so the loop only exits at an empty frontier and
        // the host tail finds nothing to do.
        assert!(r.num_colors as usize <= g.max_degree() + 1);
    }

    #[test]
    fn replays_one_graph_per_iteration() {
        let g = erdos_renyi(300, 0.02, 4);
        let r = hybrid_jp(&g, 5);
        let p = r.profile.expect("profiled");
        assert_eq!(p.graph_replays, r.iterations as u64);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let r = hybrid_jp(&Csr::empty(0), 1);
        assert_eq!(r.num_colors, 0);
        let r = hybrid_jp(&Csr::empty(5), 1);
        assert_eq!(r.num_colors, 1);
        assert!(r.coloring.as_slice().iter().all(|&c| c == 1));
    }
}
