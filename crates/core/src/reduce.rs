//! Iterated-greedy color reduction: squeeze colors out of any proper
//! coloring.
//!
//! Culberson & Luo ("Exploring the k-colorable landscape with iterated
//! greedy", 1996) observe that recoloring a proper coloring *from
//! scratch*, first-fit, one old color class at a time, never needs more
//! colors than the old coloring had — and usually needs fewer, because
//! the new class order breaks the ties that trapped the old one. That
//! is the kernel of `reduce_colors`. Each *pass* clears a device color
//! buffer and visits the old classes in turn; every member takes the
//! minimum excluded color ([`mex`]) of the neighbors already recolored
//! in this pass (not yet recolored neighbors read 0, which `mex`
//! ignores). Two guarantees carry the design:
//!
//! * one launch per old class is race-free and deterministic: an old
//!   class is an independent set, so no thread of a launch reads
//!   another's write;
//! * the count never rises: the j-th class visited sees new colors only
//!   in the j−1 classes before it, so it takes a color ≤ j.
//!
//! Passes alternate two class orders, starting with the highest old
//! color first, then the largest class first (ties to the higher
//! color). The loop stops at the first pass that does not lower the
//! count, at `max_passes`, or once the [`ReduceBudget`] is spent — the
//! budget is checked after each pass, so any positive budget buys one
//! pass. Both properties (never more colors, always proper) are
//! property-tested under random budgets.
//!
//! ```
//! use gc_core::reduce::{reduce_colors, ReduceBudget};
//! use gc_graph::generators::cycle;
//! use gc_vgpu::Device;
//!
//! let g = cycle(8);
//! // A wasteful (but proper) coloring: every vertex its own color.
//! let mut colors: Vec<u32> = (1..=8).collect();
//! let outcome = reduce_colors(&Device::k40c(), &g, &mut colors, ReduceBudget::default());
//! assert_eq!(outcome.colors_before, 8);
//! assert_eq!(outcome.colors_after, 2); // even cycles are 2-colorable
//! gc_core::assert_proper(&g, &colors);
//! ```

use std::ops::Range;

use gc_graph::Csr;
use gc_vgpu::{Device, DeviceBuffer};

use crate::color::count_distinct;

/// Minimum excluded color: the smallest color `>= 1` absent from
/// `forbidden` (0 entries — uncolored neighbors — are ignored). Sorts
/// in place. Every first-fit rule in the workspace takes this mex: the
/// short-cutting colorers' commits, this post-pass, and gc-shard's
/// conflict repair, in kernels through [`Forbidden`].
#[inline]
pub fn mex(forbidden: &mut [u32]) -> u32 {
    forbidden.sort_unstable();
    first_free_from(forbidden, 1)
}

/// The smallest color `>= c` absent from the ascending `sorted`.
fn first_free_from(sorted: &[u32], mut c: u32) -> u32 {
    for &f in sorted {
        match f.cmp(&c) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => c += 1,
            std::cmp::Ordering::Greater => break,
        }
    }
    c
}

/// First-fit scratch for one simulated thread: the colors its neighbors
/// hold. Colors 1..=64 set bits of one `u64` mask, so the mex of a
/// typical neighborhood is the mask's trailing ones plus one, with no
/// sort and no heap allocation; only colors above 64 go to a spill
/// vector, which is sorted only when 1..=64 are all taken. Every
/// in-kernel first-fit rule gathers through it; the result is exactly
/// [`mex`] of the pushed colors.
#[derive(Debug, Default)]
pub struct Forbidden {
    /// Bit `c - 1` is set once color `c` in 1..=64 was pushed.
    low: u64,
    /// Pushed colors above 64, in push order.
    spill: Vec<u32>,
}

impl Forbidden {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one neighbor color (0, uncolored, is ignored).
    #[inline]
    pub fn push(&mut self, color: u32) {
        match color {
            0 => {}
            1..=64 => self.low |= 1 << (color - 1),
            _ => self.spill.push(color),
        }
    }

    /// The smallest color `>= 1` not pushed ([`mex`] of the gathered set).
    #[inline]
    pub fn mex(&mut self) -> u32 {
        let free = self.low.trailing_ones();
        if free < 64 {
            return free + 1;
        }
        self.spill.sort_unstable();
        first_free_from(&self.spill, 65)
    }
}

/// Stop conditions for [`reduce_colors`]. The pass loop ends at the
/// first of: a pass that does not lower the color count, `max_passes`
/// passes, or `max_model_ms` simulated milliseconds spent on the pass
/// device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReduceBudget {
    /// Hard cap on passes; `0` runs none.
    pub max_passes: u32,
    /// Model-time cap (ms) on the device doing the recoloring, the
    /// one-time graph upload included. Checked after each pass, so any
    /// positive budget buys one pass and the last pass may overshoot;
    /// `0.0` runs no pass and uploads nothing (useful to report
    /// `colors_before` cheaply).
    pub max_model_ms: f64,
}

impl Default for ReduceBudget {
    fn default() -> Self {
        ReduceBudget {
            max_passes: 8,
            max_model_ms: f64::INFINITY,
        }
    }
}

impl ReduceBudget {
    /// Budget bounded only by model time, as the service's
    /// `MinColors { budget_ms }` objective requests.
    pub fn model_ms(ms: f64) -> Self {
        ReduceBudget {
            max_passes: u32::MAX,
            max_model_ms: ms,
        }
    }
}

/// What [`reduce_colors`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReduceOutcome {
    /// Distinct colors before the first pass.
    pub colors_before: u32,
    /// Distinct colors after the last pass.
    pub colors_after: u32,
    /// Passes executed.
    pub passes: u32,
    /// Vertices whose color changed, summed over passes. A pass
    /// relabels classes, so this counts moves that kept the count too.
    pub moved: u64,
    /// Simulated milliseconds the post-pass spent (uploads, per-class
    /// kernels, clears, downloads).
    pub model_ms: f64,
}

/// Recolors `colors` in place by iterated greedy, never increasing the
/// number of colors and keeping the coloring proper, until a pass stops
/// lowering the count or `budget` runs out.
///
/// `colors` must be a proper 1-based coloring of `g` (every entry
/// `>= 1`); pass any [`crate::Coloring`]'s slice. Each pass launches one
/// kernel per old color class, in the pass's class order (see the
/// module docs), over that class's slice of one uploaded vertex list.
/// Device traffic is metered: the graph uploads once, each pass uploads
/// its vertex list and downloads its colors once, and every pass after
/// the first clears the color buffer with a kernel.
pub fn reduce_colors(
    dev: &Device,
    g: &Csr,
    colors: &mut [u32],
    budget: ReduceBudget,
) -> ReduceOutcome {
    let n = g.num_vertices();
    assert_eq!(colors.len(), n, "coloring length must match the graph");
    debug_assert!(
        crate::verify::is_proper(g, colors).is_ok(),
        "reduce_colors requires a proper coloring"
    );
    let colors_before = count_distinct(colors);
    let mut outcome = ReduceOutcome {
        colors_before,
        colors_after: colors_before,
        ..ReduceOutcome::default()
    };
    if n == 0 || colors_before <= 1 || budget.max_passes == 0 || budget.max_model_ms <= 0.0 {
        return outcome;
    }

    let mut span = gc_telemetry::span("reduce_colors");
    span.attr("colors_before", colors_before);

    let model0 = dev.elapsed_ms();
    let row_off: Vec<u32> = g.row_offsets().iter().map(|&o| o as u32).collect();
    let d_row_off = dev.upload(&row_off);
    let d_cols = dev.upload(g.col_indices());
    // This pass's colors; 0 marks a vertex not yet recolored.
    let d_new = DeviceBuffer::<u32>::zeroed(n);

    loop {
        let mut pass_span = gc_telemetry::span("reduce_pass");
        let pass_model0 = if pass_span.is_recording() {
            dev.elapsed_ms()
        } else {
            0.0
        };
        if outcome.passes > 0 {
            dev.launch("reduce::clear", n, |t| t.write(&d_new, t.tid(), 0));
        }
        let (order, classes) = class_order(colors, outcome.passes % 2 == 1);
        let d_order = dev.upload(&order);
        for class in &classes {
            // The class is an independent set: no thread of this launch
            // reads another's write, so the kernel is deterministic.
            dev.launch("reduce::recolor_class", class.len(), |t| {
                let v = t.read(&d_order, class.start + t.tid());
                let lo = t.read(&d_row_off, v as usize) as usize;
                let hi = t.read(&d_row_off, v as usize + 1) as usize;
                let mut forbidden = Forbidden::new();
                for e in lo..hi {
                    let u = t.read(&d_cols, e);
                    forbidden.push(t.read(&d_new, u as usize));
                }
                t.write(&d_new, v as usize, forbidden.mex());
            });
        }
        let fresh = dev.download(&d_new);
        let moved = fresh
            .iter()
            .zip(colors.iter())
            .filter(|(a, b)| a != b)
            .count() as u64;
        colors.copy_from_slice(&fresh);
        let count = count_distinct(colors);
        let lowered = count < outcome.colors_after;
        outcome.colors_after = count;
        outcome.passes += 1;
        outcome.moved += moved;
        if pass_span.is_recording() {
            pass_span.attr("pass", outcome.passes);
            pass_span.attr("classes", classes.len());
            pass_span.attr("moved", moved);
            pass_span.attr("colors", count);
            pass_span.set_model_range(pass_model0, dev.elapsed_ms());
        }
        if !lowered
            || outcome.passes >= budget.max_passes
            || dev.elapsed_ms() - model0 >= budget.max_model_ms
        {
            break;
        }
    }

    outcome.model_ms = dev.elapsed_ms() - model0;
    if span.is_recording() {
        span.attr("colors_after", outcome.colors_after);
        span.attr("passes", outcome.passes);
        span.attr("moved", outcome.moved);
    }
    outcome
}

/// One pass's vertex list, grouped by old color class in visiting
/// order, and each class's slice of it (members ascending by id).
/// Classes are visited from the highest color down, or, when
/// `largest_first`, by descending size with ties to the higher color.
fn class_order(colors: &[u32], largest_first: bool) -> (Vec<u32>, Vec<Range<usize>>) {
    let top = colors.iter().copied().max().unwrap_or(0) as usize;
    let mut size = vec![0usize; top + 1];
    for &c in colors {
        size[c as usize] += 1;
    }
    let mut visit: Vec<usize> = (1..=top).rev().filter(|&c| size[c] > 0).collect();
    if largest_first {
        // Stable, so equal sizes keep the higher color first.
        visit.sort_by_key(|&c| std::cmp::Reverse(size[c]));
    }
    let mut next = vec![0usize; top + 1];
    let mut classes = Vec::with_capacity(visit.len());
    let mut at = 0;
    for &c in &visit {
        next[c] = at;
        classes.push(at..at + size[c]);
        at += size[c];
    }
    let mut order = vec![0u32; colors.len()];
    for (v, &c) in colors.iter().enumerate() {
        order[next[c as usize]] = v as u32;
        next[c as usize] += 1;
    }
    (order, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_proper;
    use gc_graph::generators::{complete, cycle, erdos_renyi, path, star};
    use gc_graph::Csr;

    fn reduce(g: &Csr, colors: &mut [u32], budget: ReduceBudget) -> ReduceOutcome {
        reduce_colors(&Device::k40c(), g, colors, budget)
    }

    #[test]
    fn mex_matches_definition() {
        assert_eq!(mex(&mut []), 1);
        assert_eq!(mex(&mut [0, 0]), 1);
        assert_eq!(mex(&mut [2, 3]), 1);
        assert_eq!(mex(&mut [1, 2, 3]), 4);
        assert_eq!(mex(&mut [3, 1]), 2);
        assert_eq!(mex(&mut [1, 1, 2, 4]), 3);
        assert_eq!(mex(&mut [1, 2, 4]), 3);
        assert_eq!(mex(&mut [1, 1, 2, 2]), 3);
        assert_eq!(mex(&mut [3, 1, 2]), 4);
        assert_eq!(mex(&mut [0, 1, 2]), 3, "0 (uncolored) is never assigned");
    }

    #[test]
    fn rainbow_cycle_collapses_to_two_colors() {
        let g = cycle(10);
        let mut colors: Vec<u32> = (1..=10).collect();
        let out = reduce(&g, &mut colors, ReduceBudget::default());
        assert_eq!(out.colors_before, 10);
        assert_eq!(out.colors_after, 2);
        assert!(out.moved > 0);
        assert!(is_proper(&g, &colors).is_ok());
    }

    #[test]
    fn complete_graph_cannot_improve() {
        let g = complete(5);
        let mut colors: Vec<u32> = (1..=5).collect();
        let out = reduce(&g, &mut colors, ReduceBudget::default());
        assert_eq!(out.colors_after, 5);
        assert_eq!(out.passes, 1, "a pass that keeps the count ends the loop");
        assert!(is_proper(&g, &colors).is_ok());
    }

    #[test]
    fn first_fit_local_minimum_is_escaped() {
        // Path 0-1-2-3 colored [1, 2, 3, 1]: no vertex has a strictly
        // smaller free color, yet recoloring the classes from the highest
        // down gives [1, 2, 1, 2].
        let g = path(4);
        let mut colors = vec![1u32, 2, 3, 1];
        let out = reduce(
            &g,
            &mut colors,
            ReduceBudget {
                max_passes: 1,
                max_model_ms: f64::INFINITY,
            },
        );
        assert_eq!(out.colors_after, 2);
        assert_eq!(colors, vec![1, 2, 1, 2]);
    }

    #[test]
    fn star_with_inflated_leaves_collapses() {
        // Hub color 1, leaves colored 2..=7: all leaves can share 2.
        let g = star(7);
        let mut colors = vec![1u32, 2, 3, 4, 5, 6, 7];
        let out = reduce(&g, &mut colors, ReduceBudget::default());
        assert_eq!(out.colors_after, 2);
        assert!(is_proper(&g, &colors).is_ok());
    }

    #[test]
    fn zero_budget_runs_no_pass() {
        let g = cycle(6);
        for budget in [
            ReduceBudget::model_ms(0.0),
            ReduceBudget {
                max_passes: 0,
                max_model_ms: f64::INFINITY,
            },
        ] {
            let dev = Device::k40c();
            let mut colors: Vec<u32> = (1..=6).collect();
            let out = reduce_colors(&dev, &g, &mut colors, budget);
            assert_eq!(out.passes, 0);
            assert_eq!(out.colors_after, out.colors_before);
            assert_eq!(colors, (1..=6).collect::<Vec<u32>>());
            assert_eq!(out.model_ms, 0.0, "no pass, so no upload either");
            assert_eq!(dev.profile().memcpy_bytes, 0);
        }
    }

    #[test]
    fn budget_below_the_upload_still_buys_one_pass() {
        let g = cycle(12);
        let mut colors: Vec<u32> = (1..=12).collect();
        let budget = ReduceBudget::model_ms(1e-9);
        let out = reduce(&g, &mut colors, budget);
        assert!(out.model_ms > budget.max_model_ms);
        assert_eq!(out.passes, 1);
        assert_eq!(out.colors_after, 2);
        assert!(is_proper(&g, &colors).is_ok());
    }

    #[test]
    fn single_pass_budget_still_makes_progress() {
        let g = cycle(12);
        let mut colors: Vec<u32> = (1..=12).collect();
        let out = reduce(
            &g,
            &mut colors,
            ReduceBudget {
                max_passes: 1,
                max_model_ms: f64::INFINITY,
            },
        );
        assert_eq!(out.passes, 1);
        assert!(out.colors_after < out.colors_before);
        assert!(is_proper(&g, &colors).is_ok());
    }

    #[test]
    fn reduces_a_real_colorer_output() {
        let g = erdos_renyi(400, 0.02, 7);
        let r = crate::naumov::naumov_cc(&g, 42);
        let mut colors = r.coloring.as_slice().to_vec();
        let out = reduce(&g, &mut colors, ReduceBudget::default());
        assert_eq!(out.colors_before, r.num_colors);
        assert!(
            out.colors_after < out.colors_before,
            "CC burns colors; the post-pass must recover some ({} -> {})",
            out.colors_before,
            out.colors_after
        );
        assert!(is_proper(&g, &colors).is_ok());
    }

    #[test]
    fn deterministic_across_runs() {
        let g = erdos_renyi(200, 0.05, 3);
        let r = crate::naumov::naumov_cc(&g, 9);
        let mut a = r.coloring.as_slice().to_vec();
        let mut b = a.clone();
        let oa = reduce(&g, &mut a, ReduceBudget::default());
        let ob = reduce(&g, &mut b, ReduceBudget::default());
        assert_eq!(a, b);
        assert_eq!(oa, ob);
    }
}
