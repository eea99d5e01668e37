//! A virtual GPU: bulk-synchronous SIMT kernel execution on CPU threads
//! with an analytic performance model.
//!
//! The paper this repository reproduces runs CUDA kernels on an NVIDIA
//! K40c. This crate is the substitution substrate: kernels written against
//! [`Device::launch`] execute *for real* (on rayon worker threads, grouped
//! into warps and thread blocks exactly like the GPU grid), while every
//! global-memory access, atomic, and kernel launch is metered by a cost
//! model (see [`cost`]) whose terms mirror the effects the paper
//! discusses:
//!
//! * **warp divergence / load imbalance** — a warp's cost is the maximum
//!   over its 32 threads, so a serial for-loop over a high-degree vertex
//!   stalls its whole warp (the paper's `af_shell3` pathology);
//! * **memory coalescing** — sequential per-thread accesses bill the
//!   element size, scattered accesses bill a full 32-byte transaction;
//! * **kernel launch & global synchronization overhead** — every launch
//!   bills a fixed cost, which is what separates the one-kernel-per-
//!   iteration Gunrock IS implementation from the many-kernel
//!   advance/neighbor-reduce (AR) implementation;
//! * **atomics** — billed per-thread latency plus a device-wide
//!   serialization term.
//!
//! Model time is deterministic: the same program on the same input
//! produces exactly the same model nanoseconds, independent of host
//! machine and thread scheduling. Wall-clock performance of the simulator
//! itself is measured separately by the Criterion benches.
//!
//! ```
//! use gc_vgpu::{Device, DeviceBuffer};
//!
//! let dev = Device::k40c();
//! let xs = dev.upload(&[1u32, 2, 3, 4]);
//! let out = DeviceBuffer::<u32>::zeroed(4);
//! dev.launch("double", 4, |t| {
//!     let i = t.tid();
//!     let v = t.read(&xs, i);
//!     t.write(&out, i, v * 2);
//! });
//! assert_eq!(dev.download(&out), vec![2, 4, 6, 8]);
//! assert_eq!(dev.profile().launches, 1);
//! assert!(dev.elapsed_ms() > 0.0); // transfers + kernel, all metered
//! ```

pub mod buffer;
pub mod config;
pub mod cost;
pub mod device;
pub mod frontier;
pub mod pool;
pub mod primitives;
pub mod profiler;
pub mod rng;
pub mod scalar;
pub mod thread;

pub use buffer::{DeviceBuffer, SeqRun};
pub use config::DeviceConfig;
pub use device::{Device, LaunchGraph, TransferEvent};
pub use frontier::Frontier;
pub use profiler::{KernelRecord, ProfileReport};
pub use scalar::Scalar;
pub use thread::ThreadCtx;

#[cfg(test)]
mod proptests;
