//! The device: kernel launches, synchronization, transfers, and the model
//! clock.
//!
//! When the calling thread has a current `gc_telemetry::Tracer`, every
//! launch, sync, and transfer is also reported as a completed child span
//! of whatever span that thread has open (a colorer iteration, a service
//! request), carrying both its wall time and its model-clock extent —
//! the bottom layer of the request → iteration → kernel attribution
//! chain. Without a tracer the only overhead is one boolean check.

use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;

use crate::buffer::DeviceBuffer;
use crate::config::DeviceConfig;
use crate::cost::{kernel_cost, memcpy_cost, LaunchStats};
use crate::profiler::{intern_name, KernelRecord, ProfileReport, Profiler};
use crate::scalar::Scalar;
use crate::thread::{intern_costs, ConfigCosts, ThreadCounters, ThreadCtx};

/// A simulated GPU. All kernel launches on a device execute on the global
/// rayon pool and advance the device's deterministic model clock.
///
/// ```
/// use gc_vgpu::{Device, DeviceBuffer};
///
/// let dev = Device::k40c();
/// let data = dev.upload(&[1u32, 2, 3, 4]);
/// let out = DeviceBuffer::<u32>::zeroed(4);
/// dev.launch("double", 4, |t| {
///     let i = t.tid();
///     let v = t.read(&data, i);
///     t.write(&out, i, v * 2);
/// });
/// assert_eq!(dev.download(&out), vec![2, 4, 6, 8]);
/// assert!(dev.elapsed_ms() > 0.0); // transfers + one kernel, metered
/// ```
pub struct Device {
    cfg: DeviceConfig,
    /// Cost subset interned once at construction so launches skip the
    /// intern-table lookup.
    costs: &'static ConfigCosts,
    profiler: Mutex<Profiler>,
}

/// Launches with at most this many blocks run inline on the calling
/// thread: below this, handing blocks to the pool's helper threads
/// costs more than it buys.
const SERIAL_BLOCK_LIMIT: usize = 4;

/// Completion handle of an asynchronous peer transfer
/// ([`Device::peer_transfer_async`]).
///
/// The event pins the transfer's completion on the device's *absolute*
/// model clock (the axis that survives [`Device::reset`]), so a copy
/// issued before a colorer's run-start reset can still be awaited
/// meaningfully afterwards. [`Device::wait_event`] bills the waiting
/// device only for the part of the copy its compute since issue did not
/// hide — `max(compute, transfer)` accounting instead of the serial sum
/// the synchronous transfer paths bill.
#[derive(Clone, Copy, Debug)]
pub struct TransferEvent {
    bytes: u64,
    cost_cycles: f64,
    completion_abs: f64,
}

impl TransferEvent {
    /// Bytes the transfer moves.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The copy's full metered cost in cycles (what the synchronous path
    /// would have billed).
    pub fn cost_cycles(&self) -> f64 {
        self.cost_cycles
    }

    /// Completion time on the absolute model clock.
    pub fn completion_abs(&self) -> f64 {
        self.completion_abs
    }
}

/// A captured kernel pipeline (the model's CUDA Graph).
///
/// [`Device::capture`] records the pipeline *builder* — a closure over
/// the device, its buffers, and any host-side loop state — without
/// executing it. Each [`Device::replay`] runs the builder under graph
/// accounting: every interior kernel executes normally and bills its
/// full work (compute, memory, atomics, divergence), but the fixed
/// per-launch overhead is billed **once for the whole pipeline** instead
/// of once per kernel.
///
/// Because the builder re-runs on every replay, dynamic extents resolve
/// at replay time: a pipeline that launches over a compacted frontier
/// reads the *current* frontier each round, so captured iterations stay
/// bit-identical to uncaptured ones — only the fixed overhead differs.
pub struct LaunchGraph<'a> {
    name: &'static str,
    body: Box<dyn Fn() + 'a>,
}

impl std::fmt::Debug for LaunchGraph<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LaunchGraph({})", self.name)
    }
}

impl LaunchGraph<'_> {
    /// The name given at capture.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Device {
    pub fn new(cfg: DeviceConfig) -> Self {
        Device {
            costs: intern_costs(&cfg),
            profiler: Mutex::new(Profiler::new()),
            cfg,
        }
    }

    /// Wall and model start of a telemetry span, when a tracer is current.
    #[inline]
    fn trace_start(&self) -> Option<(Instant, f64)> {
        gc_telemetry::enabled().then(|| (Instant::now(), self.elapsed_ms()))
    }

    /// The paper's GPU.
    pub fn k40c() -> Self {
        Self::new(DeviceConfig::k40c())
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Launches `n_threads` simulated threads running `kernel`.
    ///
    /// Threads are grouped into warps of `cfg.warp_size` and blocks of
    /// `cfg.block_size`; blocks execute concurrently on the rayon pool
    /// while threads within a warp run sequentially (their *modeled* cost
    /// is lock-step: the warp bills the max of its threads, so divergence
    /// and intra-warp load imbalance are priced exactly as the paper
    /// describes for its serial neighbor loops).
    ///
    /// The launch advances the model clock and records a profiler entry.
    pub fn launch<F>(&self, name: &str, n_threads: usize, kernel: F)
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        self.launch_gather(name, n_threads, |t, _: &mut ()| kernel(t));
    }

    /// [`Device::launch`] with a host-side accumulator per executor task:
    /// `kernel` also receives the `S` of the task running its thread.
    /// Tasks cover contiguous block ranges and run their blocks, warps
    /// and lanes in ascending order, so the returned accumulators, in
    /// task order, saw every thread in `tid` order. Metering is exactly
    /// [`Device::launch`]'s; the accumulators are unmetered.
    pub(crate) fn launch_gather<S, F>(&self, name: &str, n_threads: usize, kernel: F) -> Vec<S>
    where
        S: Default + Send,
        F: Fn(&mut ThreadCtx, &mut S) + Sync,
    {
        let trace_start = self.trace_start();
        let name = intern_name(name);
        let costs = self.costs;
        let warp = self.cfg.warp_size as usize;
        let block = self.cfg.block_size as usize;
        let warp_size = self.cfg.warp_size;

        // Executes one block serially, accumulating its launch stats.
        // Stats merging is integer sums plus maxes, so any partition of
        // blocks into tasks yields bit-identical totals.
        let run_block = |b: usize, acc: &mut S| {
            let mut block_stats = LaunchStats::default();
            let start = b * block;
            let end = ((b + 1) * block).min(n_threads);
            let mut t = start;
            while t < end {
                let warp_end = (t + warp).min(end);
                let mut warp_max = ThreadCounters::default();
                let mut warp_sum = ThreadCounters::default();
                // One context serves the whole warp: `begin_lane` resets
                // the per-thread counters while the warp-scoped access
                // tracker rides along, replacing the old per-thread
                // construct/teardown and tracker copy-in/copy-out.
                let mut ctx = ThreadCtx::new(t, warp_size, costs);
                for tid in t..warp_end {
                    ctx.begin_lane(tid);
                    kernel(&mut ctx, acc);
                    let c = ctx.counters();
                    warp_max.cycles = warp_max.cycles.max(c.cycles);
                    warp_max.bytes = warp_max.bytes.max(c.bytes);
                    warp_sum.merge_sum(&c);
                }
                block_stats.add_warp(&warp_max, &warp_sum, (warp_end - t) as u64);
                t = warp_end;
            }
            block_stats
        };
        let run_task = |lo: usize, hi: usize| {
            let mut acc = S::default();
            let stats = (lo..hi)
                .map(|b| run_block(b, &mut acc))
                .fold(LaunchStats::default(), LaunchStats::merge);
            (stats, acc)
        };

        let num_blocks = n_threads.div_ceil(block);
        let (stats, accs) = if num_blocks <= SERIAL_BLOCK_LIMIT {
            // Tiny launch: run inline, skipping the pool hand-off. Zero
            // threads run no block, but the host still paid for the
            // launch, so overhead is billed and the launch is recorded.
            let (stats, acc) = run_task(0, num_blocks);
            (stats, vec![acc])
        } else {
            // Chunk several blocks per rayon task so per-task overhead
            // amortizes (about four tasks per pool thread).
            let chunk = num_blocks
                .div_ceil(rayon::current_num_threads().max(1) * 4)
                .max(1);
            let tasks = num_blocks.div_ceil(chunk);
            let parts: Vec<(LaunchStats, S)> = (0..tasks)
                .into_par_iter()
                .map(|task| run_task(task * chunk, ((task + 1) * chunk).min(num_blocks)))
                .collect();
            let mut stats = LaunchStats::default();
            let mut accs = Vec::with_capacity(parts.len());
            for (s, acc) in parts {
                stats = stats.merge(s);
                accs.push(acc);
            }
            (stats, accs)
        };

        let cost = kernel_cost(&self.cfg, &stats);
        let cost_cycles = cost.total_cycles;
        self.profiler.lock().unwrap().record_kernel(KernelRecord {
            name,
            threads: stats.threads,
            bytes: stats.bytes,
            atomics: stats.atomics,
            cost,
        });
        if let Some((wall0, model0)) = trace_start {
            gc_telemetry::record_complete(
                name,
                wall0,
                Instant::now(),
                Some((model0, self.elapsed_ms())),
                &[
                    ("threads", stats.threads.to_string()),
                    ("bytes", stats.bytes.to_string()),
                    ("atomics", stats.atomics.to_string()),
                    ("cycles", format!("{cost_cycles:.0}")),
                ],
            );
        }
        accs
    }

    /// Captures a kernel pipeline for replay, without executing it.
    ///
    /// `body` is the pipeline builder: a closure issuing the launches
    /// (and any host-side glue — rank mirrors, convergence reads,
    /// mid-pipeline frontier swaps) of one round. It may borrow the
    /// device, buffers, and interior-mutable loop state; the returned
    /// graph holds those borrows until dropped.
    pub fn capture<'a, F>(&self, name: &str, body: F) -> LaunchGraph<'a>
    where
        F: Fn() + 'a,
    {
        LaunchGraph {
            name: intern_name(name),
            body: Box::new(body),
        }
    }

    /// Replays a captured pipeline as one metered dispatch.
    ///
    /// Interior kernels execute and bill their work exactly as
    /// uncaptured launches would; the fixed launch overhead is billed
    /// once for the whole graph, so a k-kernel replay saves
    /// `(k - 1) x launch_overhead_cycles` against issuing the kernels
    /// individually. Replays cannot nest on one device. When traced, the
    /// replay reports a `replay` span carrying the graph's name, kernel
    /// count, and resolved extent.
    pub fn replay(&self, graph: &LaunchGraph<'_>) {
        let trace_start = self.trace_start();
        self.profiler.lock().unwrap().begin_replay();
        (graph.body)();
        let (kernels, extent) = self
            .profiler
            .lock()
            .unwrap()
            .end_replay(self.cfg.launch_overhead_cycles as f64);
        if let Some((wall0, model0)) = trace_start {
            gc_telemetry::record_complete(
                "replay",
                wall0,
                Instant::now(),
                Some((model0, self.elapsed_ms())),
                &[
                    ("graph", graph.name.to_string()),
                    ("kernels", kernels.to_string()),
                    ("extent", extent.to_string()),
                ],
            );
        }
    }

    /// Explicit device-wide synchronization (`cudaDeviceSynchronize`);
    /// bills the sync overhead. Kernel launches already include the
    /// implicit same-stream ordering cost.
    pub fn sync(&self) {
        let trace_start = self.trace_start();
        let cycles = self.cfg.sync_overhead_cycles as f64;
        self.profiler.lock().unwrap().record_sync(cycles);
        if let Some((wall0, model0)) = trace_start {
            gc_telemetry::record_complete(
                "vgpu::sync",
                wall0,
                Instant::now(),
                Some((model0, self.elapsed_ms())),
                &[],
            );
        }
    }

    /// Metered host→device transfer.
    pub fn upload<T: Scalar>(&self, data: &[T]) -> DeviceBuffer<T> {
        let trace_start = self.trace_start();
        let bytes = data.len() as u64 * T::BYTES;
        let cycles = memcpy_cost(&self.cfg, bytes);
        self.profiler.lock().unwrap().record_memcpy(bytes, cycles);
        self.trace_memcpy("vgpu::memcpy_h2d", trace_start, bytes);
        DeviceBuffer::from_slice(data)
    }

    /// Metered device→host transfer.
    pub fn download<T: Scalar>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        let trace_start = self.trace_start();
        let bytes = buf.size_bytes();
        let cycles = memcpy_cost(&self.cfg, bytes);
        self.profiler.lock().unwrap().record_memcpy(bytes, cycles);
        self.trace_memcpy("vgpu::memcpy_d2h", trace_start, bytes);
        buf.to_vec()
    }

    /// Metered device→device (peer) copy: `src` on this device into
    /// `dst` on `peer`. The buffers must have equal length.
    ///
    /// Both endpoints record the transfer and bill the copy's cycles on
    /// their own clock — a peer copy occupies the link at both ends, so
    /// neither device's timeline can hide behind the other's. The halo
    /// exchange of the sharded runner (`gc-shard`) is built on this.
    pub fn peer_transfer<T: Scalar>(
        &self,
        peer: &Device,
        src: &DeviceBuffer<T>,
        dst: &DeviceBuffer<T>,
    ) {
        assert_eq!(
            src.len(),
            dst.len(),
            "peer_transfer requires equal-length buffers"
        );
        let trace_start = self.trace_start();
        let bytes = src.size_bytes();
        self.profiler
            .lock()
            .unwrap()
            .record_d2d(bytes, memcpy_cost(&self.cfg, bytes));
        peer.profiler
            .lock()
            .unwrap()
            .record_d2d(bytes, memcpy_cost(&peer.cfg, bytes));
        dst.copy_from_slice(&src.to_vec());
        self.trace_memcpy("vgpu::memcpy_d2d", trace_start, bytes);
    }

    /// Asynchronous metered device→device (peer) copy: `src` on this
    /// device into `dst[dst_off..dst_off + src.len()]` on `peer` (the
    /// offset lets halo exchanges land each peer's segment directly in
    /// one concatenated replica, the way a real P2P copy writes to an
    /// offset device pointer).
    ///
    /// The copy is **source-driven**: it starts once the source timeline
    /// has reached the issue point and both peer links are free — the
    /// receiver's compute timeline does not gate the start, because a
    /// P2P push is executed by the source's DMA engine; the receiver
    /// only pays when it waits. The snapshot of `src` lands in `dst`
    /// immediately (model semantics: the importer must not read the
    /// range before awaiting the returned event). Both endpoints' links
    /// are occupied for the copy's duration — a second transfer on
    /// either device queues behind it — and both endpoints count the
    /// transfer and its bytes at issue. No clock cycles are billed here:
    /// the importing device bills its stall (if any) when it calls
    /// [`Device::wait_event`], which is how a round's exchange ends up
    /// costing `max(compute, transfer)` instead of the serial sum
    /// [`Device::peer_transfer`] bills.
    pub fn peer_transfer_async<T: Scalar>(
        &self,
        peer: &Device,
        src: &DeviceBuffer<T>,
        dst: &DeviceBuffer<T>,
        dst_off: usize,
    ) -> TransferEvent {
        assert!(
            dst_off + src.len() <= dst.len(),
            "peer_transfer_async out of range: {} + {} > {}",
            dst_off,
            src.len(),
            dst.len()
        );
        let trace_start = self.trace_start();
        let bytes = src.size_bytes();
        let cost = memcpy_cost(&self.cfg, bytes);
        // Locks are taken one at a time (issue is host-orchestrated, so
        // no interleaving races).
        let (self_abs, self_free) = {
            let p = self.profiler.lock().unwrap();
            (p.abs_cycles(), p.engine_free_abs())
        };
        let peer_free = peer.profiler.lock().unwrap().engine_free_abs();
        let start = self_abs.max(self_free).max(peer_free);
        let completion = start + cost;
        {
            let mut p = self.profiler.lock().unwrap();
            p.occupy_engine(completion);
            p.record_d2d_issue(bytes);
        }
        {
            let mut p = peer.profiler.lock().unwrap();
            p.occupy_engine(completion);
            p.record_d2d_issue(bytes);
        }
        dst.copy_from_slice_at(dst_off, &src.to_vec());
        self.trace_memcpy("vgpu::memcpy_d2d_async", trace_start, bytes);
        TransferEvent {
            bytes,
            cost_cycles: cost,
            completion_abs: completion,
        }
    }

    /// Blocks this device's timeline until `ev` completes, billing only
    /// the uncovered remainder of the copy (compute issued between the
    /// transfer and this wait hides the rest, credited to the engine's
    /// overlapped counter in the profile).
    pub fn wait_event(&self, ev: &TransferEvent) {
        self.profiler
            .lock()
            .unwrap()
            .record_async_wait(ev.cost_cycles, ev.completion_abs);
    }

    fn trace_memcpy(&self, name: &str, trace_start: Option<(Instant, f64)>, bytes: u64) {
        if let Some((wall0, model0)) = trace_start {
            gc_telemetry::record_complete(
                name,
                wall0,
                Instant::now(),
                Some((model0, self.elapsed_ms())),
                &[("bytes", bytes.to_string())],
            );
        }
    }

    /// Model clock in cycles since construction or the last reset.
    pub fn elapsed_cycles(&self) -> f64 {
        self.profiler.lock().unwrap().clock_cycles()
    }

    /// Model clock in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.cfg.cycles_to_ns(self.elapsed_cycles())
    }

    /// Model clock in milliseconds (the unit the paper reports).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns() / 1e6
    }

    /// Clears the model clock and the profiler.
    pub fn reset(&self) {
        self.profiler.lock().unwrap().reset();
    }

    /// Profiling snapshot.
    pub fn profile(&self) -> ProfileReport {
        let mut r = self.profiler.lock().unwrap().report();
        r.launch_overhead_ms = self.cfg.cycles_to_ns(r.launch_overhead_cycles) / 1e6;
        r
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Device({} SMs @ {} GHz)",
            self.cfg.num_sms, self.cfg.clock_ghz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_runs_every_thread_once() {
        let dev = Device::new(DeviceConfig::test_tiny());
        let out = DeviceBuffer::<u32>::zeroed(1000);
        dev.launch("mark", 1000, |t| {
            let tid = t.tid();
            t.write(&out, tid, tid as u32 + 1);
        });
        let v = out.to_vec();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u32 + 1);
        }
    }

    #[test]
    fn launch_advances_clock_deterministically() {
        let run = || {
            let dev = Device::new(DeviceConfig::test_tiny());
            let buf = DeviceBuffer::<u32>::zeroed(256);
            dev.launch("incr", 256, |t| {
                let tid = t.tid();
                let v = t.read(&buf, tid);
                t.write(&buf, tid, v + 1);
            });
            dev.elapsed_cycles()
        };
        let a = run();
        assert!(a > 0.0);
        assert_eq!(a, run());
        assert_eq!(a, run());
    }

    #[test]
    fn zero_thread_launch_costs_only_overhead() {
        let dev = Device::new(DeviceConfig::test_tiny());
        dev.launch("noop", 0, |_| {});
        assert_eq!(
            dev.elapsed_cycles(),
            DeviceConfig::test_tiny().launch_overhead_cycles as f64
        );
    }

    #[test]
    fn zero_thread_launch_is_a_metered_noop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dev = Device::new(DeviceConfig::test_tiny());
        let ran = AtomicBool::new(false);
        dev.launch("noop", 0, |_| ran.store(true, Ordering::Relaxed));
        assert!(
            !ran.load(Ordering::Relaxed),
            "zero-thread launch must not execute the kernel body"
        );
        let r = dev.profile();
        assert_eq!(r.launches, 1, "the launch is still recorded");
        assert_eq!(r.thread_executions, 0);
        assert_eq!(
            dev.elapsed_cycles(),
            DeviceConfig::test_tiny().launch_overhead_cycles as f64,
            "overhead is still billed"
        );
    }

    #[test]
    fn chunked_launch_matches_per_block_totals() {
        // A launch big enough to spread over many rayon tasks must
        // produce the same stats and clock as any other partition.
        let cfg = DeviceConfig::test_tiny();
        let run = |n: usize| {
            let dev = Device::new(cfg);
            let counter = DeviceBuffer::<u32>::zeroed(1);
            let data = DeviceBuffer::<u32>::zeroed(n);
            dev.launch("work", n, |t| {
                let i = t.tid();
                let v = t.read(&data, i);
                t.write(&data, i, v + 1);
                if i % 3 == 0 {
                    t.atomic_add(&counter, 0, 1);
                }
            });
            (dev.elapsed_cycles(), counter.get(0), dev.profile())
        };
        let (cycles, hits, prof) = run(10_000);
        assert_eq!(hits, 10_000u32.div_ceil(3));
        assert_eq!(prof.thread_executions, 10_000);
        // Deterministic across repeats (different rayon interleavings).
        for _ in 0..3 {
            let (c2, h2, p2) = run(10_000);
            assert_eq!(cycles, c2);
            assert_eq!(hits, h2);
            assert_eq!(
                prof.by_kernel["work"].total_bytes,
                p2.by_kernel["work"].total_bytes
            );
        }
    }

    #[test]
    fn sync_bills_overhead() {
        let dev = Device::new(DeviceConfig::test_tiny());
        dev.sync();
        dev.sync();
        assert_eq!(dev.elapsed_cycles(), 100.0);
        assert_eq!(dev.profile().syncs, 2);
    }

    #[test]
    fn upload_download_roundtrip_and_bill() {
        let dev = Device::new(DeviceConfig::test_tiny());
        let buf = dev.upload(&[1u32, 2, 3]);
        let back = dev.download(&buf);
        assert_eq!(back, vec![1, 2, 3]);
        let r = dev.profile();
        assert_eq!(r.memcpys, 2);
        assert_eq!(r.memcpy_bytes, 24);
        assert!(dev.elapsed_cycles() > 0.0);
    }

    #[test]
    fn atomics_from_many_threads_are_exact() {
        let dev = Device::new(DeviceConfig::test_tiny());
        let counter = DeviceBuffer::<u32>::zeroed(1);
        dev.launch("count", 10_000, |t| {
            t.atomic_add(&counter, 0, 1);
        });
        assert_eq!(counter.get(0), 10_000);
    }

    #[test]
    fn divergent_kernel_costs_more_than_uniform() {
        // Same total work, different distribution: all concentrated in
        // lane 0 of each warp vs spread evenly.
        let total_per_warp = 3200u64;
        let cfg = DeviceConfig::k40c();
        let uniform = {
            let dev = Device::new(cfg);
            dev.launch("uniform", 32 * 100, |t| t.charge(total_per_warp / 32));
            dev.elapsed_cycles()
        };
        let divergent = {
            let dev = Device::new(cfg);
            dev.launch("divergent", 32 * 100, |t| {
                if t.lane() == 0 {
                    t.charge(total_per_warp);
                }
            });
            dev.elapsed_cycles()
        };
        assert!(
            divergent > uniform * 2.0,
            "divergent {divergent} should dwarf uniform {uniform}"
        );
    }

    #[test]
    fn more_launches_cost_more_overhead() {
        let cfg = DeviceConfig::test_tiny();
        let one = {
            let dev = Device::new(cfg);
            dev.launch("k", 64, |t| t.charge(1));
            dev.elapsed_cycles()
        };
        let four = {
            let dev = Device::new(cfg);
            for _ in 0..4 {
                dev.launch("k", 16, |t| t.charge(1));
            }
            dev.elapsed_cycles()
        };
        assert!(four > one + 2.0 * cfg.launch_overhead_cycles as f64);
    }

    #[test]
    fn reset_zeroes_clock() {
        let dev = Device::new(DeviceConfig::test_tiny());
        dev.launch("k", 10, |t| t.charge(5));
        assert!(dev.elapsed_cycles() > 0.0);
        dev.reset();
        assert_eq!(dev.elapsed_cycles(), 0.0);
    }

    #[test]
    fn traced_device_emits_kernel_sync_and_memcpy_events() {
        let tracer = gc_telemetry::Tracer::new();
        {
            let _cur = tracer.make_current();
            let dev = Device::new(DeviceConfig::test_tiny());
            let parent = gc_telemetry::span("iteration");
            let buf = dev.upload(&[1u32, 2, 3]);
            dev.launch("traced_kernel", 3, |t| {
                let i = t.tid();
                let v = t.read(&buf, i);
                t.write(&buf, i, v + 1);
            });
            dev.sync();
            let _ = dev.download(&buf);
            drop(parent);
        }
        let recs = tracer.records();
        let names: Vec<&str> = recs.iter().map(|r| r.name.as_str()).collect();
        for expect in [
            "vgpu::memcpy_h2d",
            "traced_kernel",
            "vgpu::sync",
            "vgpu::memcpy_d2h",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        let parent_id = recs.iter().find(|r| r.name == "iteration").unwrap().id;
        let kernel = recs.iter().find(|r| r.name == "traced_kernel").unwrap();
        assert_eq!(kernel.parent, Some(parent_id));
        assert!(kernel.model_dur_ms.unwrap() > 0.0);
        assert!(kernel.attrs.iter().any(|(k, v)| k == "threads" && v == "3"));
    }

    #[test]
    fn untraced_device_emits_nothing() {
        let dev = Device::new(DeviceConfig::test_tiny());
        dev.launch("quiet", 8, |t| t.charge(1));
        // No current tracer: nothing to observe beyond the profiler, and
        // the launch must not panic reaching for one.
        assert_eq!(dev.profile().launches, 1);
    }

    #[test]
    fn replay_matches_uncaptured_except_launch_overhead() {
        let cfg = DeviceConfig::test_tiny();
        let n = 500usize;
        let run = |captured: bool| {
            let dev = Device::new(cfg);
            let data = DeviceBuffer::<u32>::zeroed(n);
            let body = |dev: &Device| {
                dev.launch("step1", n, |t| {
                    let i = t.tid();
                    let v = t.read(&data, i);
                    t.write(&data, i, v + 1);
                });
                dev.launch("step2", n, |t| {
                    let i = t.tid();
                    if t.read(&data, i) % 2 == 0 {
                        t.charge(17);
                    }
                });
                dev.launch("step3", n / 2, |t| t.charge(3));
            };
            if captured {
                let graph = dev.capture("pipeline", || body(&dev));
                dev.replay(&graph);
            } else {
                body(&dev);
            }
            (dev.elapsed_cycles(), data.to_vec(), dev.profile())
        };
        let (plain_cycles, plain_data, plain_prof) = run(false);
        let (replay_cycles, replay_data, replay_prof) = run(true);
        assert_eq!(plain_data, replay_data, "replay must be bit-identical");
        // Three kernels collapsed to one dispatch: exactly two launch
        // overheads saved, everything else identical.
        let overhead = cfg.launch_overhead_cycles as f64;
        assert_eq!(plain_cycles - replay_cycles, 2.0 * overhead);
        assert_eq!(plain_prof.launches, 3);
        assert_eq!(replay_prof.launches, 1);
        assert_eq!(replay_prof.graph_replays, 1);
        assert_eq!(replay_prof.graph_kernels, 3);
        assert_eq!(replay_prof.launch_overhead_saved_cycles, 2.0 * overhead);
        assert_eq!(
            plain_prof.thread_executions, replay_prof.thread_executions,
            "replay bills the same simulated work"
        );
    }

    #[test]
    fn capture_does_not_execute() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let dev = Device::new(DeviceConfig::test_tiny());
        let runs = AtomicU32::new(0);
        let graph = dev.capture("lazy", || {
            runs.fetch_add(1, Ordering::Relaxed);
            dev.launch("k", 8, |t| t.charge(1));
        });
        assert_eq!(runs.load(Ordering::Relaxed), 0, "capture must not run");
        assert_eq!(dev.profile().launches, 0);
        dev.replay(&graph);
        dev.replay(&graph);
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(dev.profile().graph_replays, 2);
    }

    #[test]
    fn replay_resolves_dynamic_extents() {
        use std::cell::Cell;
        let dev = Device::new(DeviceConfig::test_tiny());
        let extent = Cell::new(100usize);
        let counter = DeviceBuffer::<u32>::zeroed(1);
        let graph = dev.capture("shrinking", || {
            dev.launch("work", extent.get(), |t| {
                t.atomic_add(&counter, 0, 1);
            });
        });
        dev.replay(&graph);
        extent.set(7);
        dev.replay(&graph);
        assert_eq!(counter.get(0), 107, "each replay ran the current extent");
    }

    #[test]
    fn traced_replay_emits_replay_span_with_attrs() {
        let tracer = gc_telemetry::Tracer::new();
        {
            let _cur = tracer.make_current();
            let dev = Device::new(DeviceConfig::test_tiny());
            let parent = gc_telemetry::span("iteration");
            let graph = dev.capture("pipe", || {
                dev.launch("ka", 16, |t| t.charge(1));
                dev.launch("kb", 64, |t| t.charge(1));
            });
            dev.replay(&graph);
            drop(parent);
        }
        let recs = tracer.records();
        let replay = recs.iter().find(|r| r.name == "replay").unwrap();
        let attr = |k: &str| {
            replay
                .attrs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("replay span missing {k} attr"))
        };
        assert_eq!(attr("graph"), "pipe");
        assert_eq!(attr("kernels"), "2");
        assert_eq!(attr("extent"), "64");
        // Interior kernels are still individually visible, nested under
        // the same parent as the replay itself.
        let parent_id = recs.iter().find(|r| r.name == "iteration").unwrap().id;
        for name in ["ka", "kb", "replay"] {
            let r = recs.iter().find(|r| r.name == name).unwrap();
            assert_eq!(r.parent, Some(parent_id), "{name} parent");
        }
    }

    #[test]
    fn profile_reports_launch_overhead_ms() {
        let cfg = DeviceConfig::test_tiny(); // 1 GHz: cycles == ns
        let dev = Device::new(cfg);
        dev.launch("k", 8, |t| t.charge(1));
        let r = dev.profile();
        let want = cfg.launch_overhead_cycles as f64 / 1e6;
        assert!((r.launch_overhead_ms - want).abs() < 1e-12);
    }

    #[test]
    fn async_peer_transfer_overlaps_with_compute() {
        let cfg = DeviceConfig::test_tiny();
        // Serial reference: compute + synchronous transfer.
        let n = 4096usize;
        let serial = {
            let a = Device::new(cfg);
            let b = Device::new(cfg);
            let src = a.upload(&vec![7u32; n]);
            a.reset();
            b.reset();
            let dst = DeviceBuffer::<u32>::zeroed(n);
            a.launch("work", n, |t| t.charge(50));
            a.peer_transfer(&b, &src, &dst);
            (a.elapsed_cycles(), dst.to_vec())
        };
        let overlapped = {
            let a = Device::new(cfg);
            let b = Device::new(cfg);
            let src = a.upload(&vec![7u32; n]);
            a.reset();
            b.reset();
            let dst = DeviceBuffer::<u32>::zeroed(n);
            let ev = a.peer_transfer_async(&b, &src, &dst, 0);
            a.launch("work", n, |t| t.charge(50));
            a.wait_event(&ev);
            let prof = a.profile();
            assert_eq!(prof.d2d_transfers, 1);
            assert!(prof.d2d_overlapped_cycles > 0.0, "some cost must hide");
            assert_eq!(
                prof.d2d_overlapped_cycles + prof.d2d_stall_cycles,
                ev.cost_cycles()
            );
            (a.elapsed_cycles(), dst.to_vec())
        };
        assert_eq!(serial.1, overlapped.1, "same data lands either way");
        assert!(
            overlapped.0 < serial.0,
            "overlap {} must beat serial {}",
            overlapped.0,
            serial.0
        );
    }

    #[test]
    fn elapsed_ms_unit_conversion() {
        let dev = Device::new(DeviceConfig::test_tiny()); // 1 GHz
        dev.sync(); // 50 cycles = 50 ns
        assert!((dev.elapsed_ns() - 50.0).abs() < 1e-9);
        assert!((dev.elapsed_ms() - 50.0e-6).abs() < 1e-12);
    }
}
