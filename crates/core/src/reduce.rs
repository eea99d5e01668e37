//! Iterated color-reduction post-pass: squeeze colors out of any
//! proper coloring.
//!
//! Chen et al. ("Efficient and High-quality Sparse Graph Coloring on
//! the GPU") observe that the color classes a parallel colorer produces
//! are front-loaded: the highest-numbered classes are tiny, and most of
//! their members have a *legal* lower color already — the round that
//! assigned them simply never looked. `reduce_colors` exploits this
//! with a color-centric recolor loop: process classes from the highest
//! color downward, and move every member whose neighborhood permits a
//! strictly smaller color.
//!
//! One kernel per class is race-free *by construction*: a color class
//! of a proper coloring is an independent set, so the threads of one
//! launch never read each other's writes, and the result is
//! deterministic. Repeating the sweep (a *pass*) keeps helping because
//! each pass vacates low colors that unblock the next; the loop stops
//! when a pass moves nothing or the [`ReduceBudget`] runs out. Colors
//! can only decrease and the coloring stays proper throughout — both
//! properties are property-tested under random budgets.
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

use gc_graph::Csr;
use gc_vgpu::Device;

use crate::color::count_distinct;

/// Minimum excluded color: the smallest color `>= 1` absent from
/// `forbidden` (0 entries — uncolored neighbors — are ignored). Sorts
/// in place. Every first-fit rule in the workspace uses it: the
/// hybrid's and short-cutting colorers' commits, this post-pass, and
/// gc-shard's conflict repair.
#[inline]
pub fn mex(forbidden: &mut [u32]) -> u32 {
    forbidden.sort_unstable();
    let mut c = 1u32;
    for &f in forbidden.iter() {
        match f.cmp(&c) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => c += 1,
            std::cmp::Ordering::Greater => break,
        }
    }
    c
}

/// Stop conditions for [`reduce_colors`]. The pass loop ends at the
/// first of: a pass that moves no vertex, `max_passes` passes, or
/// `max_model_ms` simulated milliseconds spent on the pass device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReduceBudget {
    /// Hard cap on sweep passes.
    pub max_passes: u32,
    /// Model-time cap (ms) on the device doing the recoloring. Checked
    /// between passes, so one pass may overshoot; `0.0` runs no pass at
    /// all (useful to report `colors_before` cheaply).
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
    /// Sweep passes executed.
    pub passes: u32,
    /// Vertices whose color changed, summed over passes.
    pub moved: u64,
    /// Simulated milliseconds the post-pass spent (uploads, per-class
    /// kernels, downloads).
    pub model_ms: f64,
}

/// Recolors `colors` in place, never increasing the number of colors
/// and keeping the coloring proper, until `budget` runs out or a full
/// pass moves nothing.
///
/// `colors` must be a proper 1-based coloring of `g` (every entry
/// `>= 1`); pass any [`crate::Coloring`]'s slice. Each pass sweeps the
/// color classes from the highest color down to 2, launching one
/// kernel per class; a member moves iff the minimum excluded color of
/// its full neighborhood is smaller than its current color. Device
/// traffic is metered: graph and colors upload once, class slot-lists
/// upload per kernel, colors download once per pass.
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
    if n == 0 || colors_before <= 1 {
        return outcome;
    }

    let mut span = gc_telemetry::span("reduce_colors");
    span.attr("colors_before", colors_before);

    let model0 = dev.elapsed_ms();
    let row_off: Vec<u32> = g.row_offsets().iter().map(|&o| o as u32).collect();
    let d_row_off = dev.upload(&row_off);
    let d_cols = dev.upload(g.col_indices());
    let d_colors = dev.upload(colors);

    while outcome.passes < budget.max_passes && dev.elapsed_ms() - model0 < budget.max_model_ms {
        let mut pass_span = gc_telemetry::span("reduce_pass");
        let pass_model0 = if pass_span.is_recording() {
            dev.elapsed_ms()
        } else {
            0.0
        };
        // Class lists from the host mirror. Members that moved in the
        // previous pass are listed under their *new* color — exactly
        // where the next sweep should look at them again.
        let top = colors.iter().copied().max().unwrap_or(0);
        let mut classes: Vec<Vec<u32>> = vec![Vec::new(); top as usize + 1];
        for (v, &c) in colors.iter().enumerate() {
            classes[c as usize].push(v as u32);
        }
        let mut launched = 0u32;
        for c in (2..=top).rev() {
            let members = &classes[c as usize];
            if members.is_empty() {
                continue;
            }
            let slots = dev.upload(members);
            launched += 1;
            // The class is an independent set: no thread of this launch
            // reads another's write, so the kernel is deterministic.
            dev.launch("reduce::recolor_class", members.len(), |t| {
                let v = t.read(&slots, t.tid());
                let lo = t.read(&d_row_off, v as usize) as usize;
                let hi = t.read(&d_row_off, v as usize + 1) as usize;
                let mut forbidden: Vec<u32> = Vec::with_capacity(hi - lo);
                for e in lo..hi {
                    let u = t.read(&d_cols, e);
                    forbidden.push(t.read(&d_colors, u as usize));
                }
                let m = mex(&mut forbidden);
                if m < c {
                    t.write(&d_colors, v as usize, m);
                }
            });
        }
        // One metered download per pass refreshes the host mirror (for
        // the next pass's class lists) and doubles as the convergence
        // check.
        let fresh = dev.download(&d_colors);
        let moved = fresh
            .iter()
            .zip(colors.iter())
            .filter(|(a, b)| a != b)
            .count() as u64;
        colors.copy_from_slice(&fresh);
        outcome.passes += 1;
        outcome.moved += moved;
        if pass_span.is_recording() {
            pass_span.attr("pass", outcome.passes);
            pass_span.attr("classes", launched);
            pass_span.attr("moved", moved);
            pass_span.set_model_range(pass_model0, dev.elapsed_ms());
        }
        if moved == 0 {
            break;
        }
    }

    outcome.colors_after = count_distinct(colors);
    outcome.model_ms = dev.elapsed_ms() - model0;
    if span.is_recording() {
        span.attr("colors_after", outcome.colors_after);
        span.attr("passes", outcome.passes);
        span.attr("moved", outcome.moved);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_proper;
    use gc_graph::generators::{complete, cycle, erdos_renyi, star};
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
        assert_eq!(out.moved, 0);
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
        let mut colors: Vec<u32> = (1..=6).collect();
        let out = reduce(&g, &mut colors, ReduceBudget::model_ms(0.0));
        assert_eq!(out.passes, 0);
        assert_eq!(out.colors_after, out.colors_before);
        assert_eq!(colors, (1..=6).collect::<Vec<u32>>());
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
