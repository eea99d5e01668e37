//! A Gunrock-style data-centric graph framework on the virtual GPU.
//!
//! Gunrock expresses graph algorithms as bulk-synchronous operations on
//! *frontiers* of vertices or edges. This crate reproduces the operators
//! the paper's coloring implementations use:
//!
//! * [`ops::compute`] — a parallel for-all over the frontier (one thread
//!   per frontier item; *not* load balanced, which is exactly why the
//!   paper's IS implementation wins on low-degree meshes and loses on
//!   `af_shell3`);
//! * filter — frontier contraction by predicate, which is
//!   [`gc_vgpu::Frontier::contract`] on the frontier type both
//!   frameworks share;
//! * [`ops::advance`] — load-balanced neighbor expansion (degree scan +
//!   per-edge gather);
//! * [`ops::neighbor_reduce`] — advance plus a segmented reduction over
//!   each neighbor list.
//!
//! The bulk-synchronous loop that drives these operators — one
//! round, one contraction, one global synchronization, repeat until the
//! frontier empties — is `gc_core::rounds`, shared by every frontier
//! colorer.
//!
//! ```
//! use gc_gunrock::ops;
//! use gc_vgpu::{Device, DeviceBuffer, Frontier};
//!
//! let dev = Device::k40c();
//! let out = DeviceBuffer::<u32>::zeroed(8);
//! let frontier = Frontier::all(8);
//! ops::compute(&dev, "square", &frontier, |t, v| {
//!     t.write(&out, v as usize, v * v);
//! });
//! let evens = frontier.contract(&dev, "evens", |_, v| v % 2 == 0);
//! assert_eq!(evens.to_vec(), vec![0, 2, 4, 6]);
//! assert_eq!(dev.download(&out)[3], 9);
//! ```

pub mod dcsr;
pub mod ops;

pub use dcsr::DeviceCsr;
