//! Per-thread kernel execution context and access metering.

use crate::buffer::{DeviceBuffer, SeqRun};
use crate::config::DeviceConfig;
use crate::scalar::Scalar;

/// Raw activity counters accumulated by one simulated thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Issue cycles spent by this thread (ALU + memory issue + atomics).
    pub cycles: u64,
    /// Bytes of DRAM traffic billed to this thread.
    pub bytes: u64,
    /// Number of atomic operations.
    pub atomics: u64,
    /// Number of global memory accesses (reads + writes).
    pub accesses: u64,
}

impl ThreadCounters {
    pub(crate) fn merge_sum(&mut self, other: &ThreadCounters) {
        self.cycles += other.cycles;
        self.bytes += other.bytes;
        self.atomics += other.atomics;
        self.accesses += other.accesses;
    }
}

/// Tracks the last-touched index of a few buffers to classify accesses as
/// sequential (coalescible, billed at element size) or scattered (billed
/// as a full memory transaction). Eight fully-associative entries with
/// round-robin replacement: any working set of up to eight buffers keeps
/// its sequential runs intact regardless of buffer ids. (A direct map
/// keyed on `buf_id % slots` let two hot buffers with colliding ids evict
/// each other on every access, mispricing coalesced scans as scattered.)
///
/// The tracker is *warp-scoped*: the launch loop threads one tracker
/// through all lanes of a warp in lane order, so the canonical coalesced
/// pattern — lane `i` touching `base + i` — is recognized across threads,
/// and a thread's own streaming scan (CSR neighbor lists) is recognized
/// within a thread.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AccessTracker {
    /// `(buffer id, last index)` pairs; id 0 marks an empty entry
    /// (buffer ids start at 1).
    entries: [(u64, u64); 8],
    /// Next entry to evict on a miss.
    victim: u8,
}

impl AccessTracker {
    pub(crate) fn new() -> Self {
        AccessTracker {
            entries: [(0, u64::MAX); 8],
            victim: 0,
        }
    }

    /// Returns `true` if this access continues a sequential run over the
    /// given buffer.
    #[inline]
    fn observe(&mut self, buf_id: u64, index: usize) -> bool {
        for (id, last) in self.entries.iter_mut() {
            if *id == buf_id {
                let seq = (index as u64) == last.wrapping_add(1);
                *last = index as u64;
                return seq;
            }
        }
        self.entries[self.victim as usize] = (buf_id, index as u64);
        self.victim = (self.victim + 1) % self.entries.len() as u8;
        false
    }
}

/// Execution context handed to every simulated thread. All global-memory
/// traffic must flow through it so the cost model can meter the kernel.
pub struct ThreadCtx {
    tid: usize,
    lane: u32,
    warp: usize,
    warp_size: u32,
    cfg: &'static ConfigCosts,
    counters: ThreadCounters,
    tracker: AccessTracker,
}

/// The subset of [`DeviceConfig`] the hot path needs, kept in a static-
/// lifetime cell per launch to avoid borrowing issues in the closure.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConfigCosts {
    pub mem_issue_cycles: u64,
    pub atomic_issue_cycles: u64,
    pub transaction_bytes: u64,
}

impl ConfigCosts {
    pub(crate) fn from_config(cfg: &DeviceConfig) -> Self {
        ConfigCosts {
            mem_issue_cycles: cfg.mem_issue_cycles,
            atomic_issue_cycles: cfg.atomic_issue_cycles,
            transaction_bytes: cfg.transaction_bytes,
        }
    }
}

// One leaked copy per distinct config; launches are frequent, configs are
// not, so interning through a leak is fine and keeps ThreadCtx cheap.
pub(crate) fn intern_costs(cfg: &DeviceConfig) -> &'static ConfigCosts {
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static CACHE: OnceLock<Mutex<Vec<&'static ConfigCosts>>> = OnceLock::new();
    let want = ConfigCosts::from_config(cfg);
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = cache.lock().unwrap();
    for c in guard.iter() {
        if c.mem_issue_cycles == want.mem_issue_cycles
            && c.atomic_issue_cycles == want.atomic_issue_cycles
            && c.transaction_bytes == want.transaction_bytes
        {
            return c;
        }
    }
    let leaked: &'static ConfigCosts = Box::leak(Box::new(want));
    guard.push(leaked);
    leaked
}

impl ThreadCtx {
    pub(crate) fn new(tid: usize, warp_size: u32, cfg: &'static ConfigCosts) -> Self {
        ThreadCtx {
            tid,
            lane: (tid as u32) % warp_size,
            warp: tid / warp_size as usize,
            warp_size,
            cfg,
            counters: ThreadCounters::default(),
            tracker: AccessTracker::new(),
        }
    }

    /// Re-arms this context for the next lane of the warp: counters reset
    /// to zero, thread ids recomputed, and the warp-scoped access tracker
    /// carried over so coalesced lane-`i`-reads-`base+i` patterns are
    /// still recognized across lanes. Reusing one context per warp chunk
    /// avoids a per-thread construct/teardown (the tracker alone is a
    /// 130-byte copy in and out per thread on the old path).
    pub(crate) fn begin_lane(&mut self, tid: usize) {
        self.tid = tid;
        self.lane = (tid as u32) % self.warp_size;
        self.warp = tid / self.warp_size as usize;
        self.counters = ThreadCounters::default();
    }

    /// Global thread index within the launch (like
    /// `blockIdx.x * blockDim.x + threadIdx.x`).
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Lane within the warp.
    #[inline]
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Warp index within the launch.
    #[inline]
    pub fn warp(&self) -> usize {
        self.warp
    }

    /// Metered global-memory read.
    #[inline]
    pub fn read<T: Scalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.meter_access::<T>(buf.id(), i);
        buf.get(i)
    }

    /// Metered global-memory write.
    #[inline]
    pub fn write<T: Scalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        self.meter_access::<T>(buf.id(), i);
        buf.set(i, v)
    }

    /// Metered read billed at element granularity regardless of the
    /// tracker's verdict. For access patterns that are coalesced *by
    /// construction across lanes* but invisible to the lane-serial
    /// tracker — e.g. a CSR-vector kernel where lane `l` reads slot
    /// `base + l` on every stride step.
    #[inline]
    pub fn read_coalesced<T: Scalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.read_seq(buf, i)
    }

    /// Metered read for an access that is sequential *by construction*
    /// (CSR row offsets, thread-mapped frontier slots, streaming scans):
    /// bills element-size bytes and one issue without consulting — or
    /// updating — the access tracker. The first-class form of the
    /// [`ThreadCtx::read_coalesced`] escape hatch; use it wherever the
    /// kernel's indexing proves coalescing statically.
    #[inline]
    pub fn read_seq<T: Scalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.counters.cycles += self.cfg.mem_issue_cycles;
        self.counters.accesses += 1;
        self.counters.bytes += T::BYTES;
        buf.get(i)
    }

    /// Metered write for a statically sequential access; the write-side
    /// twin of [`ThreadCtx::read_seq`].
    #[inline]
    pub fn write_seq<T: Scalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        self.counters.cycles += self.cfg.mem_issue_cycles;
        self.counters.accesses += 1;
        self.counters.bytes += T::BYTES;
        buf.set(i, v)
    }

    /// Bills an entire sequential scan of `buf[start..end)` up front —
    /// `end - start` issues at element-size bytes, identical to that many
    /// [`ThreadCtx::read_seq`] calls but in O(1) arithmetic — and returns
    /// a [`SeqRun`] whose element reads are raw loads. This is the bulk
    /// fast path for CSR inner loops: the dominant cost of a neighbor
    /// scan drops from per-access metering to one bounds check and four
    /// additions for the whole row.
    #[inline]
    pub fn read_seq_run<'b, T: Scalar>(
        &mut self,
        buf: &'b DeviceBuffer<T>,
        start: usize,
        end: usize,
    ) -> SeqRun<'b, T> {
        let n = (end - start) as u64;
        self.counters.cycles += n * self.cfg.mem_issue_cycles;
        self.counters.accesses += n;
        self.counters.bytes += n * T::BYTES;
        SeqRun::new(buf.cells_range(start, end))
    }

    /// Bills one tracked access to element `i` of the buffer with id
    /// `buf_id`. Exposed to the crate so a kernel can bill a write to a
    /// buffer that is only built after the launch (the gathering
    /// compaction reserves its output's id first).
    #[inline]
    pub(crate) fn meter_access<T: Scalar>(&mut self, buf_id: u64, i: usize) {
        let seq = self.tracker.observe(buf_id, i);
        self.counters.cycles += self.cfg.mem_issue_cycles;
        self.counters.accesses += 1;
        self.counters.bytes += if seq {
            T::BYTES
        } else {
            self.cfg.transaction_bytes
        };
    }

    #[inline]
    fn meter_atomic<T: Scalar>(&mut self) {
        self.counters.cycles += self.cfg.atomic_issue_cycles;
        self.counters.atomics += 1;
        self.counters.accesses += 1;
        self.counters.bytes += self.cfg.transaction_bytes.max(T::BYTES);
    }

    /// `atomicAdd`-style read-modify-write; returns the previous value.
    #[inline]
    pub fn atomic_add(&mut self, buf: &DeviceBuffer<u32>, i: usize, v: u32) -> u32 {
        self.meter_atomic::<u32>();
        u32::rmw(buf.cell(i), |x| x.wrapping_add(v))
    }

    /// Signed `atomicAdd`.
    #[inline]
    pub fn atomic_add_i32(&mut self, buf: &DeviceBuffer<i32>, i: usize, v: i32) -> i32 {
        self.meter_atomic::<i32>();
        i32::rmw(buf.cell(i), |x| x.wrapping_add(v))
    }

    /// `atomicMin`; returns the previous value.
    #[inline]
    pub fn atomic_min<T: Scalar + Ord>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.meter_atomic::<T>();
        T::rmw(buf.cell(i), |x| if v < x { v } else { x })
    }

    /// `atomicMax`; returns the previous value.
    #[inline]
    pub fn atomic_max<T: Scalar + Ord>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.meter_atomic::<T>();
        T::rmw(buf.cell(i), |x| if v > x { v } else { x })
    }

    /// `atomicCAS`; returns the value observed before the operation
    /// (CUDA semantics).
    #[inline]
    pub fn atomic_cas<T: Scalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        i: usize,
        expected: T,
        new: T,
    ) -> T {
        self.meter_atomic::<T>();
        match T::cas(buf.cell(i), expected, new) {
            Ok(prev) => prev,
            Err(seen) => seen,
        }
    }

    /// `atomicExch`; returns the previous value.
    #[inline]
    pub fn atomic_exchange<T: Scalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.meter_atomic::<T>();
        T::rmw(buf.cell(i), |_| v)
    }

    /// Generic atomic read-modify-write with a user combine: the final
    /// buffer value is order-independent when `f` is commutative and
    /// associative (the caller's obligation — this is what push-mode
    /// scatter-combines in GraphBLAS rely on). Returns the previous
    /// value.
    #[inline]
    pub fn atomic_combine<T: Scalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        i: usize,
        v: T,
        f: impl Fn(T, T) -> T,
    ) -> T {
        self.meter_atomic::<T>();
        T::rmw(buf.cell(i), |old| f(old, v))
    }

    /// Bills `cycles` of pure ALU work (comparisons, hashing, ...).
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.counters.cycles += cycles;
    }

    /// Counters accumulated so far.
    #[inline]
    pub fn counters(&self) -> ThreadCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ThreadCtx {
        let costs = intern_costs(&DeviceConfig::k40c());
        ThreadCtx::new(37, 32, costs)
    }

    #[test]
    fn ids_derived_from_tid() {
        let c = ctx();
        assert_eq!(c.tid(), 37);
        assert_eq!(c.lane(), 5);
        assert_eq!(c.warp(), 1);
    }

    #[test]
    fn read_write_meter_cycles_and_bytes() {
        let mut c = ctx();
        let buf = DeviceBuffer::from_slice(&[10u32, 20, 30]);
        assert_eq!(c.read(&buf, 0), 10);
        c.write(&buf, 2, 99);
        assert_eq!(buf.get(2), 99);
        let k = c.counters();
        assert_eq!(k.accesses, 2);
        assert_eq!(k.cycles, 2 * 4);
        assert!(k.bytes >= 2 * 4);
    }

    #[test]
    fn sequential_run_bills_element_size() {
        let mut c = ctx();
        let buf = DeviceBuffer::<u32>::zeroed(64);
        // First access: scattered (32 B); next 9 sequential (4 B each).
        for i in 0..10 {
            let _ = c.read(&buf, i);
        }
        assert_eq!(c.counters().bytes, 32 + 9 * 4);
    }

    #[test]
    fn scattered_accesses_bill_transactions() {
        let mut c = ctx();
        let buf = DeviceBuffer::<u32>::zeroed(100);
        for i in [0usize, 50, 3, 99, 7] {
            let _ = c.read(&buf, i);
        }
        assert_eq!(c.counters().bytes, 5 * 32);
    }

    #[test]
    fn atomics_metered_and_apply() {
        let mut c = ctx();
        let buf = DeviceBuffer::<u32>::zeroed(1);
        assert_eq!(c.atomic_add(&buf, 0, 5), 0);
        assert_eq!(c.atomic_add(&buf, 0, 2), 5);
        assert_eq!(buf.get(0), 7);
        assert_eq!(c.counters().atomics, 2);
        assert_eq!(c.counters().cycles, 2 * 24);
    }

    #[test]
    fn atomic_min_max() {
        let mut c = ctx();
        let buf = DeviceBuffer::from_slice(&[10u32]);
        assert_eq!(c.atomic_min(&buf, 0, 3), 10);
        assert_eq!(buf.get(0), 3);
        assert_eq!(c.atomic_max(&buf, 0, 8), 3);
        assert_eq!(buf.get(0), 8);
        assert_eq!(c.atomic_max(&buf, 0, 2), 8);
        assert_eq!(buf.get(0), 8);
    }

    #[test]
    fn atomic_cas_semantics() {
        let mut c = ctx();
        let buf = DeviceBuffer::from_slice(&[5i32]);
        // Matching expectation swaps and returns old.
        assert_eq!(c.atomic_cas(&buf, 0, 5, 9), 5);
        assert_eq!(buf.get(0), 9);
        // Mismatched expectation leaves value and returns observed.
        assert_eq!(c.atomic_cas(&buf, 0, 5, 11), 9);
        assert_eq!(buf.get(0), 9);
    }

    #[test]
    fn atomic_exchange_returns_previous() {
        let mut c = ctx();
        let buf = DeviceBuffer::from_slice(&[1u32]);
        assert_eq!(c.atomic_exchange(&buf, 0, 42), 1);
        assert_eq!(buf.get(0), 42);
    }

    #[test]
    fn atomic_combine_applies_user_op() {
        let mut c = ctx();
        let buf = DeviceBuffer::from_slice(&[10i64]);
        assert_eq!(c.atomic_combine(&buf, 0, 7, i64::max), 10);
        assert_eq!(buf.get(0), 10);
        assert_eq!(c.atomic_combine(&buf, 0, 42, i64::max), 10);
        assert_eq!(buf.get(0), 42);
        assert_eq!(c.counters().atomics, 2);
    }

    #[test]
    fn charge_accumulates() {
        let mut c = ctx();
        c.charge(10);
        c.charge(5);
        assert_eq!(c.counters().cycles, 15);
    }

    #[test]
    fn interleaved_buffers_keep_sequential_billing() {
        // Five buffers scanned in lockstep: by pigeonhole at least two of
        // any five distinct ids collide mod 4, so the old direct-mapped
        // tracker evicted a live run on every round and billed full
        // transactions. Fully-associative slots must bill one transaction
        // per buffer (the run start) and element size for the rest,
        // whatever the ids are.
        let mut c = ctx();
        let bufs: Vec<DeviceBuffer<u32>> =
            (0..5).map(|_| DeviceBuffer::<u32>::zeroed(16)).collect();
        let rounds = 10usize;
        for i in 0..rounds {
            for b in &bufs {
                let _ = c.read(b, i);
            }
        }
        assert_eq!(
            c.counters().bytes,
            5 * 32 + 5 * (rounds as u64 - 1) * 4,
            "interleaved sequential scans must stay coalesced"
        );
    }

    #[test]
    fn warp_scoped_tracker_coalesces_across_lanes() {
        // Lane i reads buf[i]: the classic coalesced pattern. Reusing one
        // context across the lanes keeps the warp-scoped tracker alive,
        // so the warp bills one transaction for lane 0 and element-size
        // for the rest.
        let costs = intern_costs(&DeviceConfig::k40c());
        let buf = DeviceBuffer::<u32>::zeroed(32);
        let mut c = ThreadCtx::new(0, 32, costs);
        let mut total_bytes = 0;
        for lane in 0..32usize {
            c.begin_lane(lane);
            let _ = c.read(&buf, lane);
            total_bytes += c.counters().bytes;
        }
        assert_eq!(total_bytes, 32 + 31 * 4);
    }

    #[test]
    fn begin_lane_resets_counters_and_ids() {
        let mut c = ctx();
        let buf = DeviceBuffer::<u32>::zeroed(8);
        let _ = c.read(&buf, 0);
        assert_eq!(c.counters().accesses, 1);
        c.begin_lane(64);
        assert_eq!(c.counters(), ThreadCounters::default());
        assert_eq!(c.tid(), 64);
        assert_eq!(c.lane(), 0);
        assert_eq!(c.warp(), 2);
    }

    #[test]
    fn seq_accesses_bill_element_size_without_tracker() {
        let mut c = ctx();
        let buf = DeviceBuffer::<u32>::zeroed(64);
        // Scattered indices, but billed as sequential: the caller vouches.
        let _ = c.read_seq(&buf, 50);
        c.write_seq(&buf, 3, 7);
        assert_eq!(buf.get(3), 7);
        let k = c.counters();
        assert_eq!(k.accesses, 2);
        assert_eq!(k.cycles, 2 * 4);
        assert_eq!(k.bytes, 2 * 4);
    }

    #[test]
    fn seq_run_bills_like_per_element_seq_reads() {
        let buf = DeviceBuffer::from_slice(&[5u32, 6, 7, 8, 9]);
        let mut bulk = ctx();
        let run = bulk.read_seq_run(&buf, 1, 4);
        assert_eq!(run.len(), 3);
        assert_eq!(run.get(0), 6);
        assert_eq!(run.iter().collect::<Vec<_>>(), vec![6, 7, 8]);
        assert_eq!(run.into_iter().collect::<Vec<_>>(), vec![6, 7, 8]);

        let mut scalar = ctx();
        for i in 1..4 {
            let _ = scalar.read_seq(&buf, i);
        }
        assert_eq!(bulk.counters(), scalar.counters());
    }

    #[test]
    fn empty_seq_run_is_free() {
        let mut c = ctx();
        let buf = DeviceBuffer::<u32>::zeroed(4);
        let run = c.read_seq_run(&buf, 2, 2);
        assert!(run.is_empty());
        assert_eq!(c.counters(), ThreadCounters::default());
    }
}
