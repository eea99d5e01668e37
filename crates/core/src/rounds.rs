//! The frontier round loop every iterative device colorer runs on.
//!
//! The paper's Gunrock colorers (Algorithms 5–7), the Naumov baselines
//! and GPU Gebremedhin-Manne share one bulk-synchronous skeleton: run
//! the round's operators over a frontier, contract the frontier to the
//! vertices still in play, synchronize, repeat until it is empty.
//! [`Rounds`] is that skeleton; a colorer supplies its round body, its
//! contraction rule `keep` and an optional post-contraction step, and
//! picks a launch [`Shape`].
//!
//! ```
//! use gc_core::rounds::{Rounds, Shape};
//! use gc_vgpu::{Device, DeviceBuffer};
//!
//! // Each round retires every vertex whose id is below 2 * (round + 1).
//! let dev = Device::k40c();
//! let done = DeviceBuffer::<u32>::zeroed(7);
//! let rounds = Rounds::new(&dev, Shape::Compacted, "demo::round", "demo::keep").run(
//!     7,
//!     |round, frontier| {
//!         gc_gunrock::ops::compute(&dev, "demo::retire", frontier, |t, v| {
//!             if v < 2 * (round + 1) {
//!                 t.write(&done, v as usize, 1);
//!             }
//!         });
//!     },
//!     |t, v| t.read(&done, v as usize) == 0,
//!     |_| {},
//! );
//! assert_eq!(rounds, 4);
//! assert_eq!(dev.profile().syncs, 4);
//! ```

use std::cell::{Cell, RefCell};

use gc_vgpu::{Device, DeviceBuffer, Frontier, ThreadCtx};

/// Default safety cap on rounds: real colorings end in `O(log n)`
/// rounds with high probability, so hitting it is a bug.
const MAX_ROUNDS: u32 = 100_000;

/// How a round loop launches its kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Each round launches over the still-active frontier. The round
    /// body, the fused contraction (`keep`) and the post-step are
    /// captured once as a [`gc_vgpu::LaunchGraph`] and replayed per
    /// round, so the fixed launch overhead is paid once per round. The
    /// contraction's output length is the convergence test: no count
    /// kernel, no download.
    Compacted,
    /// The paper's launch shape: the body and post-step span all `n`
    /// vertices with one dispatch per operator, then a full-width kernel
    /// atomically counts the vertices `keep` holds for, and the 4-byte
    /// count comes back through a metered download.
    FullWidth,
}

/// A frontier round loop: its launch shape, the names it bills under
/// and its round cap.
pub struct Rounds<'d> {
    dev: &'d Device,
    shape: Shape,
    graph: &'static str,
    keep_kernel: &'static str,
    max_rounds: u32,
}

impl<'d> Rounds<'d> {
    /// A loop on `dev`. `graph` names the captured round (compacted
    /// shape); `keep_kernel` names the contraction (compacted) or the
    /// survivor count (full width).
    pub fn new(
        dev: &'d Device,
        shape: Shape,
        graph: &'static str,
        keep_kernel: &'static str,
    ) -> Self {
        Rounds {
            dev,
            shape,
            graph,
            keep_kernel,
            max_rounds: MAX_ROUNDS,
        }
    }

    /// Caps the round count.
    pub fn max_rounds(mut self, max: u32) -> Self {
        self.max_rounds = max;
        self
    }

    /// Runs rounds over the `n` vertices until none survives `keep`.
    /// Returns the number of rounds run.
    ///
    /// Round `i` runs `round(i, frontier)`, then contracts the frontier
    /// to the vertices `keep` holds for, then runs `post` over the
    /// survivors (all `n` at full width). `keep` may be evaluated more
    /// than once per vertex, so any side effect it has must be
    /// idempotent. Every round bills one `dev.sync()` and, when traced,
    /// opens one `iteration` span carrying `iteration` and
    /// `frontier_uncolored`.
    ///
    /// # Panics
    ///
    /// Panics when the round cap is reached: a coloring loop that does
    /// not terminate is a bug, not a slow run.
    pub fn run<R, K, P>(self, n: usize, round: R, keep: K, post: P) -> u32
    where
        R: Fn(u32, &Frontier),
        K: Fn(&mut ThreadCtx, u32) -> bool + Sync,
        P: Fn(&Frontier),
    {
        let _pool = gc_vgpu::pool::lease();
        let dev = self.dev;
        match self.shape {
            Shape::Compacted => {
                let frontier = RefCell::new(Frontier::all(n));
                let iteration = Cell::new(0u32);
                let left = Cell::new(0usize);
                // The iteration number and the frontier swap resolve
                // inside the captured body at replay time.
                let graph = dev.capture(self.graph, || {
                    let cur = frontier.borrow();
                    round(iteration.get(), &cur);
                    let next = cur.contract(dev, self.keep_kernel, &keep);
                    left.set(next.len());
                    drop(cur);
                    post(&next);
                    *frontier.borrow_mut() = next;
                });
                self.drive(|i| {
                    iteration.set(i);
                    dev.replay(&graph);
                    left.get()
                })
            }
            Shape::FullWidth => {
                let all = Frontier::all(n);
                let remaining = DeviceBuffer::<u32>::zeroed(1);
                self.drive(|i| {
                    round(i, &all);
                    post(&all);
                    remaining.set(0, 0);
                    dev.launch(self.keep_kernel, n, |t| {
                        let v = t.tid() as u32;
                        if keep(t, v) {
                            t.atomic_add(&remaining, 0, 1);
                        }
                    });
                    dev.download(&remaining)[0] as usize
                })
            }
        }
    }

    /// The bulk-synchronous driver: `step(i)` runs round `i` and returns
    /// its survivor count.
    fn drive(&self, mut step: impl FnMut(u32) -> usize) -> u32 {
        let mut rounds = 0u32;
        loop {
            assert!(
                rounds < self.max_rounds,
                "{} exceeded {} rounds",
                self.graph,
                self.max_rounds
            );
            // Kernel events emitted below nest inside this span on the
            // tracing thread.
            let mut span = gc_telemetry::span("iteration");
            let model0 = if span.is_recording() {
                self.dev.elapsed_ms()
            } else {
                0.0
            };
            span.attr("iteration", rounds);
            let left = step(rounds);
            self.dev.sync();
            rounds += 1;
            if span.is_recording() {
                span.attr("frontier_uncolored", left);
                span.set_model_range(model0, self.dev.elapsed_ms());
            }
            if left == 0 {
                return rounds;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_vgpu::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    /// Retires vertex `v` in round `v / per_round`, so the frontier
    /// empties after `ceil(n / per_round)` rounds in either shape.
    fn retire(rounds: Rounds<'_>, n: usize, per_round: u32) -> u32 {
        let dev = rounds.dev;
        let done = DeviceBuffer::<u32>::zeroed(n);
        rounds.run(
            n,
            |i, frontier| {
                gc_gunrock::ops::compute(dev, "test::retire", frontier, |t, v| {
                    if v / per_round <= i {
                        t.write(&done, v as usize, 1);
                    }
                });
            },
            |t, v| t.read(&done, v as usize) == 0,
            |_| {},
        )
    }

    #[test]
    fn runs_until_the_frontier_empties() {
        for shape in [Shape::Compacted, Shape::FullWidth] {
            let d = dev();
            let rounds = Rounds::new(&d, shape, "test::round", "test::keep");
            // Rounds 0..=3 retire 3, 3, 3 and 1 vertices.
            assert_eq!(retire(rounds, 10, 3), 4, "{shape:?}");
        }
    }

    #[test]
    fn one_round_when_nothing_survives() {
        for shape in [Shape::Compacted, Shape::FullWidth] {
            let d = dev();
            let rounds = Rounds::new(&d, shape, "test::round", "test::keep");
            assert_eq!(
                rounds.run(5, |_, _| {}, |_, _| false, |_| {}),
                1,
                "{shape:?}"
            );
        }
    }

    #[test]
    fn bills_one_sync_per_round() {
        for shape in [Shape::Compacted, Shape::FullWidth] {
            let d = dev();
            let r = retire(Rounds::new(&d, shape, "test::round", "test::keep"), 9, 2);
            assert_eq!(r, 5);
            assert_eq!(d.profile().syncs, 5, "{shape:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeded 10 rounds")]
    fn cap_panics_on_runaway_loop() {
        let d = dev();
        Rounds::new(&d, Shape::Compacted, "test::round", "test::keep")
            .max_rounds(10)
            .run(4, |_, _| {}, |_, _| true, |_| {});
    }
}
