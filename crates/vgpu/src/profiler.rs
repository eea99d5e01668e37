//! Kernel-level profiler: meters every launch, sync, and transfer into
//! running totals, per kernel name and per device, so benches can
//! explain *why* one implementation's model time differs from another's
//! (the paper's §V profiling discussion).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};

use crate::cost::KernelCost;
use crate::pool::{self, PoolStats};

/// Interns a kernel name, returning a `'static` handle. The launch hot
/// path records millions of kernels with a small, fixed vocabulary of
/// names; interning replaces a per-launch `String` allocation with one
/// hash lookup, and each distinct name is leaked exactly once.
pub fn intern_name(name: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashMap<&'static str, ()>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = table.lock().unwrap();
    if let Some((&interned, _)) = guard.get_key_value(name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    guard.insert(leaked, ());
    leaked
}

/// One kernel launch, as the device bills it.
#[derive(Clone, Debug)]
pub struct KernelRecord {
    /// Interned kernel name (see [`intern_name`]).
    pub name: &'static str,
    pub threads: u64,
    pub bytes: u64,
    pub atomics: u64,
    pub cost: KernelCost,
}

/// Aggregate per-kernel-name totals.
#[derive(Clone, Debug, Default)]
pub struct KernelSummary {
    pub launches: u64,
    /// Σ simulated thread executions across this kernel's launches.
    pub total_threads: u64,
    pub total_cycles: f64,
    pub total_bytes: u64,
    pub total_atomics: u64,
    /// The binding resource of the kernel's most expensive launch.
    pub dominant_bound: crate::cost::BoundBy,
    /// Cycles of that most expensive launch.
    pub max_launch_cycles: f64,
}

impl KernelSummary {
    /// Adds one launch: sums accumulate in launch order, and the
    /// dominant bound is that of the first strictly most expensive
    /// launch.
    fn add(&mut self, rec: &KernelRecord) {
        self.launches += 1;
        self.total_threads += rec.threads;
        self.total_cycles += rec.cost.total_cycles;
        self.total_bytes += rec.bytes;
        self.total_atomics += rec.atomics;
        if rec.cost.total_cycles > self.max_launch_cycles {
            self.max_launch_cycles = rec.cost.total_cycles;
            self.dominant_bound = rec.cost.bound_by();
        }
    }

    /// Folds in `other`'s totals for the same kernel name: counts and
    /// cycles sum, and the dominant bound moves to `other` only if its
    /// most expensive launch is strictly larger — the rule
    /// [`Profiler::record_kernel`] applies per launch, with `self`'s
    /// launches taken as first.
    pub fn merge(&mut self, other: &KernelSummary) {
        let KernelSummary {
            launches,
            total_threads,
            total_cycles,
            total_bytes,
            total_atomics,
            dominant_bound,
            max_launch_cycles,
        } = other;
        self.launches += launches;
        self.total_threads += total_threads;
        self.total_cycles += total_cycles;
        self.total_bytes += total_bytes;
        self.total_atomics += total_atomics;
        if *max_launch_cycles > self.max_launch_cycles {
            self.max_launch_cycles = *max_launch_cycles;
            self.dominant_bound = *dominant_bound;
        }
    }
}

/// In-flight state of one launch-graph replay (see
/// [`crate::Device::replay`]): kernels recorded while this is live bill
/// their work but not their fixed launch overhead; the replay bills one
/// overhead for the whole pipeline when it closes.
#[derive(Debug, Default)]
struct GraphReplay {
    /// Kernel launches folded into this replay so far.
    kernels: u64,
    /// Widest kernel extent (threads) seen in the replay — the dynamic
    /// extent the graph resolved this round.
    max_threads: u64,
}

/// Mutable profiler state owned by a device.
#[derive(Debug)]
pub struct Profiler {
    /// Per-kernel-name totals, updated on every launch: memory stays
    /// bounded by the number of kernel names however long the device
    /// lives, and a report costs one copy of this table.
    by_kernel: BTreeMap<&'static str, KernelSummary>,
    /// Host-visible dispatches: ordinary launches plus one per graph
    /// replay (a replay's interior kernels are *not* separate dispatches
    /// — that is the entire point of capturing them).
    launches: u64,
    syncs: u64,
    memcpys: u64,
    memcpy_bytes: u64,
    /// Device↔device peer transfers this device took part in (as source
    /// or destination — each endpoint bills the copy on its own clock).
    d2d_transfers: u64,
    d2d_bytes: u64,
    clock_cycles: f64,
    /// Completed graph replays.
    graph_replays: u64,
    /// Kernels that executed inside a graph replay.
    graph_kernels: u64,
    /// Launch-overhead cycles actually billed to the clock.
    launch_overhead_cycles: f64,
    /// Launch-overhead cycles replays avoided: `(k - 1) x overhead` per
    /// k-kernel replay.
    launch_overhead_saved_cycles: f64,
    /// Open replay, if any (replays never nest).
    replay: Option<GraphReplay>,
    /// Buffer-pool counters at construction/reset, so the report can
    /// attribute hits/misses to this device's window.
    pool_base: PoolStats,
    /// D2D cycles hidden behind compute: for each async peer transfer,
    /// `cost - stall` at the wait point. The overlap headline of the
    /// sharded halo exchange.
    d2d_overlapped_cycles: f64,
    /// D2D cycles the waiting device actually stalled for (the part of
    /// an async transfer compute did *not* cover).
    d2d_stall_cycles: f64,
    /// Absolute model clock: every cycle ever billed on this device,
    /// **surviving [`Profiler::reset`]**. Async transfer completions are
    /// timestamped on this axis so an event issued before a colorer's
    /// run-start reset stays meaningful when awaited after it.
    abs_cycles: f64,
    /// Absolute time the peer-link copy engine becomes free (never
    /// reset).
    d2d_free_abs: f64,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    pub fn new() -> Self {
        Profiler {
            by_kernel: BTreeMap::new(),
            launches: 0,
            syncs: 0,
            memcpys: 0,
            memcpy_bytes: 0,
            d2d_transfers: 0,
            d2d_bytes: 0,
            clock_cycles: 0.0,
            graph_replays: 0,
            graph_kernels: 0,
            launch_overhead_cycles: 0.0,
            launch_overhead_saved_cycles: 0.0,
            replay: None,
            pool_base: pool::stats(),
            d2d_overlapped_cycles: 0.0,
            d2d_stall_cycles: 0.0,
            abs_cycles: 0.0,
            d2d_free_abs: 0.0,
        }
    }

    pub fn record_kernel(&mut self, mut rec: KernelRecord) {
        if let Some(g) = &mut self.replay {
            // Inside a replay the kernel's work is billed in full but its
            // fixed launch overhead is not: the graph dispatch pays one
            // overhead for the whole pipeline at `end_replay`.
            let overhead = rec.cost.launch_overhead;
            rec.cost.total_cycles -= overhead;
            rec.cost.launch_overhead = 0.0;
            g.kernels += 1;
            g.max_threads = g.max_threads.max(rec.threads);
            self.graph_kernels += 1;
            self.launch_overhead_saved_cycles += overhead;
        } else {
            self.launches += 1;
            self.launch_overhead_cycles += rec.cost.launch_overhead;
        }
        self.clock_cycles += rec.cost.total_cycles;
        self.abs_cycles += rec.cost.total_cycles;
        self.by_kernel.entry(rec.name).or_default().add(&rec);
    }

    /// Opens a graph replay; kernels recorded until [`Profiler::end_replay`]
    /// bill work without per-launch overhead. Replays cannot nest.
    pub fn begin_replay(&mut self) {
        assert!(
            self.replay.is_none(),
            "launch-graph replays cannot nest: a replay is already open on this device"
        );
        self.replay = Some(GraphReplay::default());
    }

    /// Closes the open replay, billing `overhead_cycles` once for the
    /// whole pipeline. Returns `(kernels, max extent)` of the replay.
    pub fn end_replay(&mut self, overhead_cycles: f64) -> (u64, u64) {
        let g = self
            .replay
            .take()
            .expect("end_replay without a matching begin_replay");
        self.launches += 1;
        self.graph_replays += 1;
        self.clock_cycles += overhead_cycles;
        self.abs_cycles += overhead_cycles;
        self.launch_overhead_cycles += overhead_cycles;
        if g.kernels > 0 {
            // Net saving of a k-kernel replay is (k - 1) x overhead: the
            // per-kernel credits above minus the one dispatch billed here.
            self.launch_overhead_saved_cycles -= overhead_cycles;
        }
        (g.kernels, g.max_threads)
    }

    pub fn record_sync(&mut self, cycles: f64) {
        self.syncs += 1;
        self.clock_cycles += cycles;
        self.abs_cycles += cycles;
    }

    pub fn record_memcpy(&mut self, bytes: u64, cycles: f64) {
        self.memcpys += 1;
        self.memcpy_bytes += bytes;
        self.clock_cycles += cycles;
        self.abs_cycles += cycles;
    }

    /// One endpoint's share of a device↔device peer copy. Both the source
    /// and the destination device record the transfer, each billing the
    /// copy's cycles on its own clock (a peer copy occupies both ends of
    /// the link for its duration).
    pub fn record_d2d(&mut self, bytes: u64, cycles: f64) {
        self.d2d_transfers += 1;
        self.d2d_bytes += bytes;
        self.clock_cycles += cycles;
        self.abs_cycles += cycles;
    }

    pub fn clock_cycles(&self) -> f64 {
        self.clock_cycles
    }

    /// Absolute model clock: cycles billed since *construction*,
    /// surviving [`Profiler::reset`]. Async transfer completions live on
    /// this axis.
    pub fn abs_cycles(&self) -> f64 {
        self.abs_cycles
    }

    /// Absolute time the peer-link copy engine becomes free for a new
    /// transfer.
    pub fn engine_free_abs(&self) -> f64 {
        self.d2d_free_abs
    }

    /// Marks the copy engine busy until the absolute time `until`. The
    /// engine only moves forward: an earlier `until` than the current
    /// horizon is a no-op.
    pub fn occupy_engine(&mut self, until: f64) {
        self.d2d_free_abs = self.d2d_free_abs.max(until);
    }

    /// Counts one async peer transfer at *issue* time: the transfer and
    /// its bytes are visible in the report immediately, but no cycles are
    /// billed — the wait point decides how much of the copy's cost the
    /// compute in between actually hid.
    pub fn record_d2d_issue(&mut self, bytes: u64) {
        self.d2d_transfers += 1;
        self.d2d_bytes += bytes;
    }

    /// Bills the wait point of an asynchronous peer transfer: the
    /// device stalls for whatever part of the copy its compute since
    /// issue did not cover (`completion_abs` vs. the current absolute
    /// clock), and the covered remainder is credited to the overlapped
    /// counter. This is exactly `max(compute, transfer)` accounting — the
    /// synchronous path's serial `compute + transfer` sum minus the
    /// overlap.
    pub fn record_async_wait(&mut self, cost_cycles: f64, completion_abs: f64) {
        let stall = (completion_abs - self.abs_cycles).max(0.0);
        self.clock_cycles += stall;
        self.abs_cycles += stall;
        self.d2d_overlapped_cycles += (cost_cycles - stall).max(0.0);
        self.d2d_stall_cycles += stall;
    }

    pub fn reset(&mut self) {
        let (abs, d2d_free) = (self.abs_cycles, self.d2d_free_abs);
        *self = Profiler::new();
        self.abs_cycles = abs;
        self.d2d_free_abs = d2d_free;
    }

    pub fn report(&self) -> ProfileReport {
        let sum = |f: fn(&KernelSummary) -> u64| self.by_kernel.values().map(f).sum();
        let pool_now = pool::stats();
        ProfileReport {
            launches: self.launches,
            thread_executions: sum(|s| s.total_threads),
            kernel_bytes: sum(|s| s.total_bytes),
            kernel_atomics: sum(|s| s.total_atomics),
            syncs: self.syncs,
            memcpys: self.memcpys,
            memcpy_bytes: self.memcpy_bytes,
            d2d_transfers: self.d2d_transfers,
            d2d_bytes: self.d2d_bytes,
            clock_cycles: self.clock_cycles,
            graph_replays: self.graph_replays,
            graph_kernels: self.graph_kernels,
            launch_overhead_cycles: self.launch_overhead_cycles,
            launch_overhead_saved_cycles: self.launch_overhead_saved_cycles,
            launch_overhead_ms: 0.0,
            d2d_overlapped_cycles: self.d2d_overlapped_cycles,
            d2d_stall_cycles: self.d2d_stall_cycles,
            pool_hits: pool_now.hits - self.pool_base.hits,
            pool_misses: pool_now.misses - self.pool_base.misses,
            by_kernel: self
                .by_kernel
                .iter()
                .map(|(&name, s)| (name.to_string(), s.clone()))
                .collect(),
        }
    }
}

/// Immutable profiling snapshot.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Host-visible dispatches: ordinary launches plus one per graph
    /// replay. Kernels folded into a replay are counted under
    /// [`ProfileReport::graph_kernels`], not here.
    pub launches: u64,
    /// Σ simulated thread executions over every launch — the
    /// work-efficiency metric frontier compaction is judged by.
    pub thread_executions: u64,
    /// Σ kernel global-memory bytes over every launch.
    pub kernel_bytes: u64,
    /// Σ kernel atomic operations over every launch.
    pub kernel_atomics: u64,
    pub syncs: u64,
    pub memcpys: u64,
    pub memcpy_bytes: u64,
    /// Device↔device peer copies this device took part in, as source or
    /// destination. The sharded runner's halo exchange is metered here,
    /// separately from host↔device traffic.
    pub d2d_transfers: u64,
    pub d2d_bytes: u64,
    pub clock_cycles: f64,
    /// Completed [`crate::LaunchGraph`] replays.
    pub graph_replays: u64,
    /// Kernels executed inside graph replays (each billed its work but
    /// no per-launch overhead).
    pub graph_kernels: u64,
    /// Launch-overhead cycles actually billed to the model clock.
    pub launch_overhead_cycles: f64,
    /// Launch-overhead cycles avoided by replays (`(k-1) x overhead` per
    /// k-kernel replay).
    pub launch_overhead_saved_cycles: f64,
    /// [`ProfileReport::launch_overhead_cycles`] on the device's clock,
    /// in milliseconds. Filled by [`crate::Device::profile`] (the raw
    /// report from a bare [`Profiler`] has no clock rate and leaves 0).
    pub launch_overhead_ms: f64,
    /// Async peer-transfer cycles hidden behind compute (the copy cost
    /// minus the stall billed at the wait point, summed over waits). The
    /// sharded runner's overlap headline: `overlap_ratio` is this over
    /// the total D2D copy cost.
    pub d2d_overlapped_cycles: f64,
    /// Async peer-transfer cycles the device actually stalled for at
    /// wait points (the un-hidden remainder).
    pub d2d_stall_cycles: f64,
    /// Buffer-pool allocations served from a shelf during this device's
    /// profiling window (all threads; see [`crate::pool`]).
    pub pool_hits: u64,
    /// Pool-enabled allocations that fell through to the allocator
    /// during this window.
    pub pool_misses: u64,
    pub by_kernel: BTreeMap<String, KernelSummary>,
}

impl ProfileReport {
    /// Folds in the report of a device that ran concurrently with this
    /// one (the sharded runner's per-device profiles). Counters and cycle
    /// totals sum; the clock takes the max, because the devices run side
    /// by side; kernel rows merge by name (see [`KernelSummary::merge`]).
    pub fn merge(&mut self, other: &ProfileReport) {
        // Exhaustive on purpose: a new field does not compile here until
        // it is given a merge rule.
        let ProfileReport {
            launches,
            thread_executions,
            kernel_bytes,
            kernel_atomics,
            syncs,
            memcpys,
            memcpy_bytes,
            d2d_transfers,
            d2d_bytes,
            clock_cycles,
            graph_replays,
            graph_kernels,
            launch_overhead_cycles,
            launch_overhead_saved_cycles,
            launch_overhead_ms,
            d2d_overlapped_cycles,
            d2d_stall_cycles,
            pool_hits,
            pool_misses,
            by_kernel,
        } = other;
        self.launches += launches;
        self.thread_executions += thread_executions;
        self.kernel_bytes += kernel_bytes;
        self.kernel_atomics += kernel_atomics;
        self.syncs += syncs;
        self.memcpys += memcpys;
        self.memcpy_bytes += memcpy_bytes;
        self.d2d_transfers += d2d_transfers;
        self.d2d_bytes += d2d_bytes;
        self.clock_cycles = self.clock_cycles.max(*clock_cycles);
        self.graph_replays += graph_replays;
        self.graph_kernels += graph_kernels;
        self.launch_overhead_cycles += launch_overhead_cycles;
        self.launch_overhead_saved_cycles += launch_overhead_saved_cycles;
        self.launch_overhead_ms += launch_overhead_ms;
        self.d2d_overlapped_cycles += d2d_overlapped_cycles;
        self.d2d_stall_cycles += d2d_stall_cycles;
        self.pool_hits += pool_hits;
        self.pool_misses += pool_misses;
        for (name, s) in by_kernel {
            self.by_kernel.entry(name.clone()).or_default().merge(s);
        }
    }

    /// Fraction of total model time spent in kernels whose name contains
    /// `pat`. This is how the reproduction checks statements like "a
    /// second call to `GrB_vxm` ends up taking nearly 50% of the runtime".
    pub fn time_fraction(&self, pat: &str) -> f64 {
        if self.clock_cycles == 0.0 {
            return 0.0;
        }
        let t: f64 = self
            .by_kernel
            .iter()
            .filter(|(name, _)| name.contains(pat))
            .map(|(_, s)| s.total_cycles)
            .sum();
        t / self.clock_cycles
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "launches={} graph_replays={} syncs={} memcpys={} ({} B) d2d={} ({} B) model_cycles={:.0}",
            self.launches,
            self.graph_replays,
            self.syncs,
            self.memcpys,
            self.memcpy_bytes,
            self.d2d_transfers,
            self.d2d_bytes,
            self.clock_cycles
        )?;
        for (name, s) in &self.by_kernel {
            writeln!(
                f,
                "  {name:<32} x{:<6} {:>14.0} cyc {:>12} B {:>8} atomics  [{}]",
                s.launches, s.total_cycles, s.total_bytes, s.total_atomics, s.dominant_bound
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BoundBy, KernelCost};

    fn rec(name: &'static str, cycles: f64) -> KernelRecord {
        KernelRecord {
            name,
            threads: 10,
            bytes: 100,
            atomics: 2,
            cost: KernelCost {
                total_cycles: cycles,
                ..Default::default()
            },
        }
    }

    #[test]
    fn clock_advances_with_records() {
        let mut p = Profiler::default();
        p.record_kernel(rec("a", 100.0));
        p.record_sync(50.0);
        p.record_memcpy(64, 25.0);
        assert_eq!(p.clock_cycles(), 175.0);
        let r = p.report();
        assert_eq!((r.launches, r.syncs, r.memcpys), (1, 1, 1));
    }

    #[test]
    fn intern_returns_one_handle_per_name() {
        let a = intern_name("some::kernel");
        let b = intern_name("some::kernel");
        let c = intern_name("some::other");
        assert!(std::ptr::eq(a, b), "same name must intern to one handle");
        assert_eq!(a, "some::kernel");
        assert_eq!(c, "some::other");
    }

    #[test]
    fn report_sums_thread_executions() {
        let mut p = Profiler::default();
        p.record_kernel(rec("a", 10.0)); // 10 threads each
        p.record_kernel(rec("a", 10.0));
        p.record_kernel(rec("b", 10.0));
        let r = p.report();
        assert_eq!(r.thread_executions, 30);
        assert_eq!(r.by_kernel["a"].total_threads, 20);
        assert_eq!(r.by_kernel["b"].total_threads, 10);
    }

    #[test]
    fn report_groups_by_name() {
        let mut p = Profiler::default();
        p.record_kernel(rec("color", 100.0));
        p.record_kernel(rec("color", 60.0));
        p.record_kernel(rec("check", 40.0));
        p.record_memcpy(64, 25.0);
        let r = p.report();
        assert_eq!(r.launches, 3);
        assert_eq!(r.by_kernel["color"].launches, 2);
        assert_eq!(r.by_kernel["color"].total_cycles, 160.0);
        assert_eq!(r.by_kernel["check"].total_cycles, 40.0);
        // Kernel global-memory bytes and transfer bytes stay apart: the
        // rows carry their own bytes, the totals carry both sums.
        assert_eq!(r.by_kernel["color"].total_bytes, 200);
        assert_eq!(r.by_kernel["check"].total_bytes, 100);
        assert_eq!((r.kernel_bytes, r.kernel_atomics), (300, 6));
        assert_eq!(r.memcpy_bytes, 64);
        assert_eq!(r.clock_cycles, 225.0);
    }

    #[test]
    fn time_fraction() {
        let mut p = Profiler::default();
        p.record_kernel(rec("vxm_pass1", 75.0));
        p.record_kernel(rec("assign", 25.0));
        let r = p.report();
        assert_eq!(r.time_fraction("vxm"), 0.75);
        assert_eq!(r.time_fraction("nonexistent"), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = Profiler::default();
        p.record_kernel(rec("a", 10.0));
        p.reset();
        assert_eq!(p.clock_cycles(), 0.0);
        let r = p.report();
        assert!(r.by_kernel.is_empty());
        assert_eq!((r.launches, r.thread_executions), (0, 0));
    }

    #[test]
    fn display_renders() {
        let mut p = Profiler::default();
        p.record_kernel(rec("k", 10.0));
        let s = p.report().to_string();
        assert!(s.contains("k"));
        assert!(s.contains("launches=1"));
    }

    fn rec_with_overhead(name: &'static str, overhead: f64, work: f64) -> KernelRecord {
        KernelRecord {
            name,
            threads: 10,
            bytes: 100,
            atomics: 2,
            cost: KernelCost {
                launch_overhead: overhead,
                compute_term: work,
                total_cycles: overhead + work,
                ..Default::default()
            },
        }
    }

    #[test]
    fn replay_bills_one_overhead_for_the_pipeline() {
        let mut p = Profiler::default();
        p.begin_replay();
        p.record_kernel(rec_with_overhead("a", 100.0, 40.0));
        p.record_kernel(rec_with_overhead("b", 100.0, 60.0));
        p.record_kernel(rec_with_overhead("c", 100.0, 10.0));
        let (kernels, extent) = p.end_replay(100.0);
        assert_eq!(kernels, 3);
        assert_eq!(extent, 10);
        // Work in full, overhead once: 40 + 60 + 10 + 100.
        assert_eq!(p.clock_cycles(), 210.0);
        let r = p.report();
        assert_eq!(r.launches, 1, "the replay is one dispatch");
        assert_eq!(r.graph_replays, 1);
        assert_eq!(r.graph_kernels, 3);
        assert_eq!(r.launch_overhead_cycles, 100.0);
        assert_eq!(r.launch_overhead_saved_cycles, 200.0, "(k-1) x overhead");
        // Per-kernel grouping still sees every kernel.
        assert_eq!(r.by_kernel.len(), 3);
        assert_eq!(r.thread_executions, 30);
    }

    #[test]
    fn replay_of_one_kernel_saves_nothing() {
        let mut p = Profiler::default();
        p.begin_replay();
        p.record_kernel(rec_with_overhead("a", 100.0, 40.0));
        p.end_replay(100.0);
        assert_eq!(p.clock_cycles(), 140.0);
        assert_eq!(p.report().launch_overhead_saved_cycles, 0.0);
    }

    #[test]
    fn empty_replay_costs_one_overhead() {
        let mut p = Profiler::default();
        p.begin_replay();
        let (kernels, extent) = p.end_replay(100.0);
        assert_eq!((kernels, extent), (0, 0));
        assert_eq!(p.clock_cycles(), 100.0);
        let r = p.report();
        assert_eq!(r.launches, 1);
        assert_eq!(r.launch_overhead_saved_cycles, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot nest")]
    fn nested_replays_panic() {
        let mut p = Profiler::default();
        p.begin_replay();
        p.begin_replay();
    }

    #[test]
    fn d2d_transfers_bill_and_report_separately_from_memcpys() {
        let mut p = Profiler::default();
        p.record_memcpy(64, 25.0);
        p.record_d2d(128, 40.0);
        p.record_d2d(128, 40.0);
        assert_eq!(p.clock_cycles(), 105.0);
        let r = p.report();
        assert_eq!(r.memcpys, 1);
        assert_eq!(r.memcpy_bytes, 64);
        assert_eq!(r.d2d_transfers, 2);
        assert_eq!(r.d2d_bytes, 256);
        assert!(r.to_string().contains("d2d=2 (256 B)"));
    }

    #[test]
    fn abs_clock_survives_reset_while_window_clock_does_not() {
        let mut p = Profiler::default();
        p.record_kernel(rec("a", 100.0));
        p.record_sync(50.0);
        assert_eq!(p.abs_cycles(), 150.0);
        p.reset();
        assert_eq!(p.clock_cycles(), 0.0);
        assert_eq!(p.abs_cycles(), 150.0, "absolute axis must survive reset");
        p.record_kernel(rec("b", 25.0));
        assert_eq!(p.clock_cycles(), 25.0);
        assert_eq!(p.abs_cycles(), 175.0);
    }

    #[test]
    fn async_wait_bills_max_of_compute_and_transfer() {
        // Issue a 100-cycle peer copy at t=0, compute 60 cycles, wait:
        // the stall is the uncovered 40 and the overlap is the hidden 60.
        let mut p = Profiler::default();
        let cost = 100.0;
        let start = p.abs_cycles().max(p.engine_free_abs());
        let completion = start + cost;
        p.occupy_engine(completion);
        p.record_d2d_issue(400);
        p.record_kernel(rec("compute", 60.0));
        p.record_async_wait(cost, completion);
        assert_eq!(p.clock_cycles(), 100.0, "total = max(compute, transfer)");
        let r = p.report();
        assert_eq!(r.d2d_transfers, 1);
        assert_eq!(r.d2d_bytes, 400);
        assert_eq!(r.d2d_overlapped_cycles, 60.0);
        assert_eq!(r.d2d_stall_cycles, 40.0);
    }

    #[test]
    fn async_wait_after_transfer_already_done_stalls_zero() {
        let mut p = Profiler::default();
        let completion = p.abs_cycles() + 30.0;
        p.occupy_engine(completion);
        p.record_d2d_issue(8);
        p.record_kernel(rec("compute", 500.0));
        p.record_async_wait(30.0, completion);
        assert_eq!(p.clock_cycles(), 500.0, "fully hidden transfer is free");
        assert_eq!(p.report().d2d_overlapped_cycles, 30.0);
        assert_eq!(p.report().d2d_stall_cycles, 0.0);
    }

    #[test]
    fn copy_engines_serialize_back_to_back_transfers() {
        let mut p = Profiler::default();
        // Two 50-cycle copies issued at t=0 queue on the engine: the
        // second starts when the first ends.
        let s1 = p.abs_cycles().max(p.engine_free_abs());
        p.occupy_engine(s1 + 50.0);
        let s2 = p.abs_cycles().max(p.engine_free_abs());
        assert_eq!(s2, 50.0, "second copy queues behind the first");
        p.occupy_engine(s2 + 50.0);
        assert_eq!(p.engine_free_abs(), 100.0);
        // The engine never moves backwards.
        p.occupy_engine(10.0);
        assert_eq!(p.engine_free_abs(), 100.0);
    }

    #[test]
    fn overlap_counters_reach_the_report() {
        let mut p = Profiler::default();
        let completion = 40.0;
        p.occupy_engine(completion);
        p.record_d2d_issue(16);
        p.record_async_wait(40.0, completion);
        let r = p.report();
        assert_eq!(r.d2d_overlapped_cycles, 0.0);
        assert_eq!(r.d2d_stall_cycles, 40.0);
    }

    fn summary(launches: u64, max_launch_cycles: f64, dominant_bound: BoundBy) -> KernelSummary {
        KernelSummary {
            launches,
            total_threads: 10 * launches,
            total_cycles: 1.5 * launches as f64,
            total_bytes: 100 * launches,
            total_atomics: 3 * launches,
            dominant_bound,
            max_launch_cycles,
        }
    }

    /// A report whose every field is distinct and derived from `k`.
    fn report(k: u64, by_kernel: &[(&str, KernelSummary)]) -> ProfileReport {
        let f = k as f64;
        ProfileReport {
            launches: k,
            thread_executions: 2 * k,
            kernel_bytes: 3 * k,
            kernel_atomics: 4 * k,
            syncs: 5 * k,
            memcpys: 6 * k,
            memcpy_bytes: 7 * k,
            d2d_transfers: 8 * k,
            d2d_bytes: 9 * k,
            clock_cycles: 10.0 * f,
            graph_replays: 11 * k,
            graph_kernels: 12 * k,
            launch_overhead_cycles: 13.0 * f,
            launch_overhead_saved_cycles: 14.0 * f,
            launch_overhead_ms: 15.0 * f,
            d2d_overlapped_cycles: 16.0 * f,
            d2d_stall_cycles: 17.0 * f,
            pool_hits: 18 * k,
            pool_misses: 19 * k,
            by_kernel: by_kernel
                .iter()
                .map(|(name, s)| (name.to_string(), s.clone()))
                .collect(),
        }
    }

    #[test]
    fn merge_sums_counters_and_takes_max_clock() {
        let mut a = report(
            1,
            &[
                ("both_later_wins", summary(1, 5.0, BoundBy::Compute)),
                ("both_tie", summary(2, 7.0, BoundBy::Memory)),
                ("only_a", summary(3, 9.0, BoundBy::Atomics)),
            ],
        );
        let b = report(
            2,
            &[
                ("both_later_wins", summary(4, 6.0, BoundBy::CriticalPath)),
                ("both_tie", summary(5, 7.0, BoundBy::Overhead)),
                ("only_b", summary(6, 2.0, BoundBy::Memory)),
            ],
        );
        a.merge(&b);
        assert_eq!(a.launches, 3);
        assert_eq!(a.thread_executions, 6);
        assert_eq!(a.kernel_bytes, 9);
        assert_eq!(a.kernel_atomics, 12);
        assert_eq!(a.syncs, 15);
        assert_eq!(a.memcpys, 18);
        assert_eq!(a.memcpy_bytes, 21);
        assert_eq!(a.d2d_transfers, 24);
        assert_eq!(a.d2d_bytes, 27);
        assert_eq!(a.clock_cycles, 20.0, "devices run concurrently: max");
        assert_eq!(a.graph_replays, 33);
        assert_eq!(a.graph_kernels, 36);
        assert_eq!(a.launch_overhead_cycles, 39.0);
        assert_eq!(a.launch_overhead_saved_cycles, 42.0);
        assert_eq!(a.launch_overhead_ms, 45.0);
        assert_eq!(a.d2d_overlapped_cycles, 48.0);
        assert_eq!(a.d2d_stall_cycles, 51.0);
        assert_eq!(a.pool_hits, 54);
        assert_eq!(a.pool_misses, 57);

        let names: Vec<&str> = a.by_kernel.keys().map(String::as_str).collect();
        assert_eq!(names, ["both_later_wins", "both_tie", "only_a", "only_b"]);
        let row = |n: &str| &a.by_kernel[n];
        // A row on both devices sums and takes the strictly larger most
        // expensive launch's bound.
        let w = row("both_later_wins");
        assert_eq!(
            (w.launches, w.total_threads, w.total_bytes, w.total_atomics),
            (5, 50, 500, 15)
        );
        assert_eq!(w.total_cycles, 7.5);
        assert_eq!(
            (w.max_launch_cycles, w.dominant_bound),
            (6.0, BoundBy::CriticalPath)
        );
        // On a tie the first device's launch stays the dominant one.
        let t = row("both_tie");
        assert_eq!(t.launches, 7);
        assert_eq!(
            (t.max_launch_cycles, t.dominant_bound),
            (7.0, BoundBy::Memory)
        );
        // Rows on one device only pass through unchanged.
        let only_a = row("only_a");
        assert_eq!(
            (only_a.launches, only_a.total_cycles, only_a.dominant_bound),
            (3, 4.5, BoundBy::Atomics)
        );
        let only_b = row("only_b");
        assert_eq!(
            (only_b.launches, only_b.total_cycles, only_b.dominant_bound),
            (6, 9.0, BoundBy::Memory)
        );
        assert_eq!(only_b.max_launch_cycles, 2.0);
    }
}
