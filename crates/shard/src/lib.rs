//! `gc-shard` — multi-device sharded coloring.
//!
//! The paper's colorers all run on one (virtual) K40c. This crate is the
//! scale-out layer the ROADMAP points at: it colors **one graph across N
//! simulated devices** with the distributed recipe of Bogle et al.
//! (partition → speculative per-shard coloring → boundary-conflict
//! resolution), built from pieces the repo already has:
//!
//! 1. **Partition** — [`gc_graph::Partition`] edge-cut splits the CSR
//!    into contiguous, adjacency-balanced vertex ranges; each shard gets
//!    a local subgraph plus its cut structure (boundary vertices and
//!    remote halo endpoints). The default
//!    [`PartitionStrategy::BfsGrown`] grows territories along the
//!    graph's connectivity, which on meshes collapses the boundary to a
//!    perimeter; the input-order `Contiguous` split stays available as
//!    the baseline knob.
//! 2. **Speculate** — one worker thread per device runs any registered
//!    GPU colorer ([`gc_core::Colorer::run_on_device`]) on its shard's
//!    local subgraph, on its own [`gc_vgpu::Device`], with the ambient
//!    tracer re-installed so every device gets its own telemetry lane.
//! 3. **Resolve** — a bounded bulk-synchronous loop over *boundary
//!    vertices only*. Round 1 seeds every importer's halo replica with
//!    the speculative boundary colors; every later round ships only the
//!    compacted `(position, color)` pairs that changed, per peer, and
//!    only to peers that actually reference the changed slot (the
//!    exporter keeps a per-peer *send list* of referenced slots, so the
//!    full-replication traffic of the naive exchange never moves).
//!    Transfers ride the devices' copy engines
//!    ([`Device::peer_transfer_async`]) and land directly in the
//!    importer's halo segment; each round launches the local-edge half
//!    of conflict detection while the exchange is in flight, so a round
//!    costs `max(compute, transfer)` instead of their sum, and round
//!    1's seeding hides behind whichever devices are still coloring. A
//!    boundary vertex recolors exactly when it has a smaller-id
//!    same-colored neighbor and no larger-id one — a locally decidable
//!    rule under which the largest vertex of every monochromatic
//!    cluster always acts, so "nobody changed" is the (single,
//!    host-visible) termination signal. Once the surviving conflict set
//!    shrinks below a small fraction of the boundary, the loop stops
//!    and the tail is finished by the deterministic host-side greedy
//!    pass — at that size another full exchange round costs more than
//!    the remaining work.
//!
//! The resolve phase's device buffers follow the simulator's residency
//! model: the local CSR and the speculative colors were uploaded (and
//! billed) by the speculative run, so the conflict kernels read them
//! without re-buying the H2D transfer a real implementation would never
//! repeat; partition addressing (send lists, halo indices) is
//! host-precomputed setup metadata, the same treatment the two-kernel
//! vgpu compaction gives its host mirror of the scanned ranks. The part
//! of that addressing that depends only on the partition is a
//! [`CutPlan`], built once per partition; each request adds only what
//! its conflict frontier needs. Every *dynamic* byte — halo traffic,
//! per-round deltas, the final boundary download — is fully metered.
//!
//! Determinism: the partition is deterministic, per-shard seeds are a
//! pure function of `(seed, shard index)`, and every tie-break is by
//! vertex id — so results are reproducible across runs. With one device
//! the shard *is* the graph and the per-shard seed *is* the caller's
//! seed, so `devices = 1` is bit-identical to the unsharded path.
//!
//! ```
//! use gc_core::runner::colorer_by_name;
//! use gc_core::verify::is_proper;
//! use gc_graph::generators::erdos_renyi;
//! use gc_shard::{run_sharded, ShardedConfig};
//!
//! let g = erdos_renyi(300, 0.03, 7);
//! let colorer = colorer_by_name("Gunrock/Color_IS").unwrap();
//! let sharded = run_sharded(&colorer, &g, 42, &ShardedConfig::new(4));
//! assert!(sharded.verified);
//! assert!(is_proper(&g, sharded.result.coloring.as_slice()).is_ok());
//! assert_eq!(sharded.devices, 4);
//! ```

use gc_core::color::ColoringResult;
use gc_core::reduce::Forbidden;
use gc_core::runner::Colorer;
use gc_core::verify::is_proper;
use gc_graph::{Csr, Partition, PartitionStrategy, VertexId};
use gc_vgpu::{Device, DeviceBuffer, ProfileReport, TransferEvent};

pub mod repair;

pub use repair::{greedy_repair_host, repair_frontier, RepairOutcome};

/// Hard cap on conflict-resolution rounds. The loop terminates on its
/// own (every monochromatic cluster's largest vertex recolors each
/// round), but the cap bounds the worst case; if it is ever hit, the
/// remaining handful of boundary conflicts are fixed by a deterministic
/// host-side greedy pass and the run still returns a verified coloring.
/// `bench-check` rejects any benchmark row whose `conflict_rounds`
/// exceeds this bound.
pub const MAX_CONFLICT_ROUNDS: u32 = 64;

/// How to shard a coloring run.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of simulated devices (shards). `1` degenerates to the
    /// single-device path, bit-identical to `Colorer::run`.
    pub devices: usize,
    /// Verify the merged coloring against the full graph before
    /// returning (host-side `O(E)` check).
    pub verify: bool,
    /// Vertex→shard assignment; [`PartitionStrategy::BfsGrown`] by
    /// default (the `Contiguous` baseline cuts whatever the input order
    /// cuts).
    pub strategy: PartitionStrategy,
    /// After the full round-1 exchange, ship only the compacted
    /// `(position, color)` pairs that changed. Off, every round
    /// re-ships each peer's full send list (the baseline; identical
    /// colorings, more bytes).
    pub delta_halo: bool,
}

impl ShardedConfig {
    pub fn new(devices: usize) -> Self {
        ShardedConfig {
            devices: devices.max(1),
            verify: true,
            strategy: PartitionStrategy::BfsGrown,
            delta_halo: true,
        }
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig::new(1)
    }
}

/// Per-device slice of a sharded run's profile.
#[derive(Clone, Debug)]
pub struct DeviceReport {
    pub device: usize,
    pub owned_vertices: usize,
    pub boundary_vertices: usize,
    /// This device's model clock at the end of the run: its shard's
    /// coloring plus its share of halo exchange and conflict kernels.
    pub model_ms: f64,
    pub thread_executions: u64,
    pub launches: u64,
    pub d2d_bytes: u64,
    /// Device↔device transfer cycles this device hid behind compute
    /// (the overlapped share of its async halo exchange).
    pub d2d_overlapped_cycles: f64,
}

/// A merged multi-device coloring plus the sharding-specific metrics the
/// v5 bench schema reports.
#[derive(Clone, Debug)]
pub struct ShardedResult {
    /// The merged coloring with aggregate metrics: `model_ms` is the
    /// slowest device's clock (devices run concurrently; rounds are
    /// bulk-synchronous), launches and thread executions are summed, and
    /// `iterations` is the slowest shard's count plus the conflict
    /// rounds.
    pub result: ColoringResult,
    pub devices: usize,
    /// Halo-exchange rounds executed (0 when the cut is empty; at least
    /// 1 otherwise — the round that confirms the boundary is clean still
    /// exchanges and scans). Every device with boundary vertices takes
    /// part in each round.
    pub conflict_rounds: u32,
    /// Analytic full-replication halo volume: what `conflict_rounds`
    /// rounds would move if every round re-shipped every boundary color
    /// to every peer (the pre-delta baseline's traffic).
    pub halo_bytes: u64,
    /// Bytes the halo exchange actually moved device↔device: the
    /// send-list-filtered round-1 seed plus the compacted per-round
    /// deltas.
    pub halo_bytes_delta: u64,
    /// Fraction of async D2D transfer cycles hidden behind compute:
    /// `overlapped / (overlapped + stalled)` summed over devices, `0.0`
    /// when no async transfer ran.
    pub overlap_ratio: f64,
    /// Total boundary recolorings across all rounds and devices (the
    /// sum of per-round changed counts).
    pub changed_boundary: u64,
    pub boundary_vertices: usize,
    pub cut_edges: usize,
    /// Whether the merged coloring passed host-side verification (always
    /// `true` when `ShardedConfig::verify` is set and the run is
    /// correct; `bench-check` rejects rows where this is `false`).
    pub verified: bool,
    pub per_device: Vec<DeviceReport>,
}

impl ShardedResult {
    /// The busiest device's simulated thread executions — the metric the
    /// bench uses to show per-device work shrinking as devices grow.
    pub fn max_device_thread_executions(&self) -> u64 {
        self.per_device
            .iter()
            .map(|d| d.thread_executions)
            .max()
            .unwrap_or(0)
    }
}

/// Whether a run of `colorer` on `g` is sharded: CPU colorers have no
/// device to shard over, and an empty graph has nothing to split.
fn is_shardable(colorer: &Colorer, g: &Csr) -> bool {
    colorer.is_gpu() && g.num_vertices() > 0
}

/// The plain single-device run, reported as a one-device sharded result.
fn run_unsharded(colorer: &Colorer, g: &Csr, seed: u64, cfg: &ShardedConfig) -> ShardedResult {
    let result = colorer.run(g, seed);
    let verified = !cfg.verify || is_proper(g, result.coloring.as_slice()).is_ok();
    ShardedResult {
        result,
        devices: 1,
        conflict_rounds: 0,
        halo_bytes: 0,
        halo_bytes_delta: 0,
        overlap_ratio: 0.0,
        changed_boundary: 0,
        boundary_vertices: 0,
        cut_edges: 0,
        verified,
        per_device: Vec::new(),
    }
}

/// SplitMix64-style per-shard seed. Shard seeds must be decorrelated
/// (shards run the same hash/random kernels on overlapping id ranges)
/// yet a pure function of the inputs; with one shard the caller's seed
/// is used verbatim so the run stays bit-identical to the unsharded
/// path.
fn shard_seed(seed: u64, devices: usize, shard: usize) -> u64 {
    if devices == 1 {
        return seed;
    }
    let mut z = seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Colors `g` across `cfg.devices` simulated devices and merges the
/// result. CPU colorers have no device to shard over, so they fall back
/// to the plain single-device run (reported as `devices = 1`).
///
/// Partitions `g` with `cfg.strategy`, builds its [`CutPlan`] and hands
/// that to [`run_sharded_with`]; a caller that colors one graph
/// repeatedly can build the plan once and call that instead.
pub fn run_sharded(colorer: &Colorer, g: &Csr, seed: u64, cfg: &ShardedConfig) -> ShardedResult {
    if !is_shardable(colorer, g) {
        return run_unsharded(colorer, g, seed, cfg);
    }
    let plan = {
        let _span = gc_telemetry::span("partition");
        CutPlan::new(Partition::with_strategy(g, cfg.devices, cfg.strategy))
    };
    run_sharded_with(colorer, g, &plan, seed, cfg)
}

/// [`run_sharded`] on a plan the caller already built. The result is
/// bit-identical to `run_sharded` when `plan` is
/// `CutPlan::new(Partition::with_strategy(g, cfg.devices, cfg.strategy))`.
///
/// # Panics
///
/// Panics if the plan's partition does not have `cfg.devices` shards. It
/// must partition `g` itself: a partition of another graph yields a
/// wrong coloring (which `cfg.verify` reports) or an out-of-range panic.
pub fn run_sharded_with(
    colorer: &Colorer,
    g: &Csr,
    plan: &CutPlan,
    seed: u64,
    cfg: &ShardedConfig,
) -> ShardedResult {
    if !is_shardable(colorer, g) {
        return run_unsharded(colorer, g, seed, cfg);
    }
    let partition = plan.partition();
    assert_eq!(
        partition.num_shards(),
        cfg.devices,
        "the partition must have one shard per device"
    );

    let mut span = gc_telemetry::span("shard");
    span.attr("colorer", colorer.name());
    span.attr("devices", cfg.devices);
    span.attr("strategy", format!("{:?}", cfg.strategy));
    span.attr("delta_halo", cfg.delta_halo);
    span.attr("boundary_vertices", partition.boundary_vertices());
    span.attr("cut_edges", partition.cut_edges());

    let devices: Vec<Device> = (0..cfg.devices).map(|_| Device::k40c()).collect();
    let (shard_runs, mut colors) = speculate(colorer, partition, &devices, seed);

    // Phase 2 — boundary-conflict resolution across the cut.
    let stats = if partition.boundary_vertices() == 0 {
        ResolveStats {
            clean: true,
            ..ResolveStats::default()
        }
    } else {
        resolve_conflicts(plan, &devices, &mut colors, cfg)
    };

    let per_device: Vec<DeviceReport> = partition
        .shards()
        .iter()
        .zip(&devices)
        .map(|(shard, dev)| {
            let p = dev.profile();
            DeviceReport {
                device: shard.index,
                owned_vertices: shard.n_owned(),
                boundary_vertices: shard.boundary.len(),
                model_ms: dev.elapsed_ms(),
                thread_executions: p.thread_executions,
                launches: p.launches,
                d2d_bytes: p.d2d_bytes,
                d2d_overlapped_cycles: p.d2d_overlapped_cycles,
            }
        })
        .collect();

    let model_ms = per_device.iter().map(|d| d.model_ms).fold(0.0, f64::max);
    let launches: u64 = per_device.iter().map(|d| d.launches).sum();
    let iterations = shard_runs.iter().map(|r| r.iterations).max().unwrap_or(0) + stats.rounds;
    let profiles: Vec<ProfileReport> = devices.iter().map(|d| d.profile()).collect();
    let (overlapped, stalled) = profiles.iter().fold((0.0, 0.0), |(o, s), p| {
        (o + p.d2d_overlapped_cycles, s + p.d2d_stall_cycles)
    });
    let overlap_ratio = if overlapped + stalled > 0.0 {
        overlapped / (overlapped + stalled)
    } else {
        0.0
    };

    // Back to input vertex order (the identity unless the strategy
    // relabeled), then finish any tail the loop handed off — the greedy
    // pass runs on the input graph, so it must see input ids. It visits
    // only the loop's surviving frontier, which holds both endpoints of
    // every monochromatic edge, so it gives what `greedy_repair_host`
    // over the whole graph gives.
    let mut colors = partition.unpermute(&colors);
    if !stats.clean {
        let mut tail: Vec<VertexId> = stats.tail.iter().map(|&v| partition.input_id(v)).collect();
        tail.sort_unstable();
        repair::greedy_repair_at(g, &mut colors, &tail);
    }

    let mut result = ColoringResult::new(colors, iterations, model_ms, launches);
    if let Some(profile) = profiles.into_iter().reduce(|mut all, p| {
        all.merge(&p);
        all
    }) {
        result = result.with_profile(profile);
    }
    let verified = !cfg.verify || is_proper(g, result.coloring.as_slice()).is_ok();

    if span.is_recording() {
        span.attr("conflict_rounds", stats.rounds);
        span.attr("halo_bytes", stats.halo_bytes);
        span.attr("halo_bytes_delta", stats.halo_bytes_delta);
        span.attr("overlap_ratio", format!("{overlap_ratio:.3}"));
        span.attr("num_colors", result.num_colors);
        span.set_model_range(0.0, model_ms);
    }

    ShardedResult {
        result,
        devices: cfg.devices,
        conflict_rounds: stats.rounds,
        halo_bytes: stats.halo_bytes,
        halo_bytes_delta: stats.halo_bytes_delta,
        overlap_ratio,
        changed_boundary: stats.changed_boundary,
        boundary_vertices: partition.boundary_vertices(),
        cut_edges: partition.cut_edges(),
        verified,
        per_device,
    }
}

/// Phase 1 — speculative per-shard coloring, one worker thread per
/// device. Returns each shard's run and their colors merged by
/// ownership range (shard space).
fn speculate(
    colorer: &Colorer,
    partition: &Partition,
    devices: &[Device],
    seed: u64,
) -> (Vec<ColoringResult>, Vec<u32>) {
    let tracer = gc_telemetry::current();
    let mut shard_runs: Vec<ColoringResult> = Vec::with_capacity(devices.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = partition
            .shards()
            .iter()
            .zip(devices)
            .map(|(shard, dev)| {
                let tracer = tracer.clone();
                std::thread::Builder::new()
                    .name(format!("gc-shard-dev-{}", shard.index))
                    .spawn_scoped(s, move || {
                        // Each worker re-installs the ambient tracer
                        // (its own lane, named after the thread) and
                        // opts into the device-buffer pool.
                        let _cur = tracer.as_ref().map(|t| t.make_current());
                        let _pool = gc_vgpu::pool::lease();
                        if shard.n_owned() == 0 {
                            ColoringResult::new(Vec::new(), 0, 0.0, 0)
                        } else {
                            let sd = shard_seed(seed, devices.len(), shard.index);
                            colorer
                                .run_on_device(dev, &shard.local, sd)
                                .expect("GPU colorer must support run_on_device")
                        }
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        for h in handles {
            shard_runs.push(h.join().expect("shard worker panicked"));
        }
    });

    // Merge speculative colors by ownership range (shard space).
    let n: usize = partition.shards().iter().map(|s| s.n_owned()).sum();
    let mut colors = vec![0u32; n];
    for (shard, r) in partition.shards().iter().zip(&shard_runs) {
        let start = shard.start as usize;
        colors[start..start + shard.n_owned()].copy_from_slice(r.coloring.as_slice());
    }
    (shard_runs, colors)
}

/// `flag` bit: some same-colored neighbor exists (the slot stays in the
/// conflict frontier).
const CONFLICT: u32 = 1;
/// `flag` bit: this slot recolors this round (a smaller-gid same-colored
/// neighbor exists and no larger-gid one does).
const CHANGED: u32 = 2;

/// `partial` / detection bit: a same-colored neighbor with a *smaller*
/// global id exists.
const HAS_SMALLER: u32 = 1;
/// `partial` / detection bit: a same-colored neighbor with a *larger*
/// global id exists.
const HAS_LARGER: u32 = 2;

/// High bit of a packed halo index: the remote endpoint outranks the
/// local vertex in the recolor order.
const LARGER_BIT: u32 = 1 << 31;

/// A slot-map or rank entry with no slot behind it.
const NO_SLOT: u32 = u32::MAX;

/// Sort key of the total order the conflict rule uses (who of two
/// same-colored endpoints recolors): vertex `a` outranks `b` when
/// `rank_key(a) > rank_key(b)`. A raw global-id comparison would send
/// every recolor to the shard owning the largest ids — the hash spreads
/// the "largest member acts" role evenly across shards, balancing both
/// the recolor kernels and the delta traffic. Deterministic, and
/// precomputed host-side into the [`CutPlan`]'s `LARGER_BIT`s, so
/// kernels never evaluate it.
fn rank_key(gid: VertexId) -> (u64, VertexId) {
    let mut z = (gid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 31), gid)
}

/// Per-thread cycles the commit kernel bills for its warp scan and
/// decoupled-lookback wait — the same model the vgpu fused-compaction
/// primitives charge (`SHUFFLE_CYCLES + LOOKBACK_CYCLES`).
const COMPACT_CYCLES: u64 = 10;

/// Once a round changes at most `boundary / TAIL_DIVISOR` slots, the
/// loop stops and hands the survivors to the host-side greedy pass:
/// below that point a round's fixed costs (per-peer transfer setup plus
/// five kernel launches on every device) exceed the device time the
/// recolors save, so finishing the sliver on the host is strictly
/// faster. The constant is empirical for the simulated K40c's 6000-cycle
/// transfer setup and 3000-cycle launch overhead. Graphs with fewer
/// than `TAIL_DIVISOR` boundary vertices get a zero threshold, i.e. the
/// loop always runs to a clean round (which keeps the small
/// property-test graphs exercising the full device path).
const TAIL_DIVISOR: usize = 12;

/// Per-shard round-1 conflict sets, computed on the host from the merged
/// speculative colors.
///
/// The merge step already brought every shard's speculative coloring
/// back to the host (each `run_on_device` bills its own download), so
/// detecting the *initial* cross-shard conflicts is a host-side
/// traversal of data the host legitimately holds — the same class of
/// setup work as building the partition's cut addressing, and exactly
/// what a real implementation would fold into its host-mediated merge.
/// Everything after this seed operates on device-resident colors and is
/// fully billed: every later round's detection, recoloring, and traffic
/// runs on the devices.
///
/// `frontier[i]` holds shard `i`'s boundary slots with at least one
/// same-colored cut neighbor; `changed[i]` the subset that recolors in
/// round 1 (smaller-gid same-colored neighbor, no larger-gid one).
/// Local edges need no scan: a speculative coloring is proper within
/// its own shard.
struct InitialConflicts {
    frontier: Vec<Vec<u32>>,
    changed: Vec<Vec<u32>>,
}

impl InitialConflicts {
    fn compute(plan: &CutPlan, colors: &[u32]) -> InitialConflicts {
        let mut frontier = Vec::new();
        let mut changed = Vec::new();
        for s in plan.partition.shards() {
            let remote = &plan.cut_remote[s.index];
            let mut f = Vec::new();
            let mut c = Vec::new();
            for (b, &v) in s.boundary.iter().enumerate() {
                let my = colors[(s.start + v) as usize];
                if my == 0 {
                    continue;
                }
                let mut bits = 0u32;
                for e in s.cut_offsets[b]..s.cut_offsets[b + 1] {
                    if colors[s.cut_neighbors[e] as usize] == my {
                        bits |= if remote[e] & LARGER_BIT != 0 {
                            HAS_LARGER
                        } else {
                            HAS_SMALLER
                        };
                    }
                }
                if bits != 0 {
                    f.push(b as u32);
                }
                if bits & HAS_SMALLER != 0 && bits & HAS_LARGER == 0 {
                    c.push(b as u32);
                }
            }
            frontier.push(f);
            changed.push(c);
        }
        InitialConflicts { frontier, changed }
    }
}

/// The conflict loop's tables that depend only on the partition, built
/// once per partition. A caller that colors one partitioned graph many
/// times (gc-service keeps one per worker) builds them once, and each
/// request then pays only for the tables its conflict frontier needs.
/// The plan owns its partition, so the two cannot drift apart.
///
/// The tables the conflict kernels read stay resident in device buffers
/// that every request's `DevState` borrows: the kernels only read them,
/// and none depends on the request.
pub struct CutPlan {
    partition: Partition,
    /// Per shard, per cut edge (aligned with `cut_neighbors`): the shard
    /// that owns the remote endpoint.
    cut_owner: Vec<Vec<u32>>,
    /// Per shard, per cut edge: the remote endpoint's slot in its
    /// owner's boundary, packed with `LARGER_BIT` when the remote
    /// endpoint outranks the local one.
    cut_remote: Vec<Vec<u32>>,
    /// Per shard: the local CSR, as the speculative run uploads it.
    row_off: Vec<DeviceBuffer<u32>>,
    cols: Vec<DeviceBuffer<u32>>,
    /// Per shard: slot → local vertex id.
    boundary: Vec<DeviceBuffer<u32>>,
    /// Per shard: slot-space CSR offsets of the cut edges.
    cut_off: Vec<DeviceBuffer<u32>>,
    /// Per shard: slot-space CSR of local boundary↔boundary edges, the
    /// only local edges that can ever conflict during resolution (the
    /// speculative coloring is proper within the shard and interior
    /// vertices never recolor). Adjacency entries pack the neighbor's
    /// local vertex id with its rank bit (`vertex | LARGER_BIT`).
    bb_off: Vec<DeviceBuffer<u32>>,
    bb_adj: Vec<DeviceBuffer<u32>>,
}

impl CutPlan {
    /// Builds the partition-only tables of `partition`'s conflict loop:
    /// `O(V + E)` host work with one rank-key hash per boundary vertex,
    /// plus one unmetered copy of each kernel-read table into its device
    /// buffer.
    pub fn new(partition: Partition) -> CutPlan {
        let shards = partition.shards();
        // Per shard: local vertex id → boundary slot, and each slot's
        // rank key.
        let slot_of: Vec<Vec<u32>> = shards
            .iter()
            .map(|s| {
                let mut m = vec![NO_SLOT; s.n_owned()];
                for (b, &v) in s.boundary.iter().enumerate() {
                    m[v as usize] = b as u32;
                }
                m
            })
            .collect();
        let keys: Vec<Vec<(u64, VertexId)>> = shards
            .iter()
            .map(|s| s.boundary.iter().map(|&v| rank_key(s.start + v)).collect())
            .collect();
        let larger = |outranks: bool| if outranks { LARGER_BIT } else { 0 };

        // The kernels index with `u32` offsets.
        let offsets_u32 = |offs: &[usize]| -> DeviceBuffer<u32> {
            DeviceBuffer::from_slice(&offs.iter().map(|&o| o as u32).collect::<Vec<u32>>())
        };

        let k = shards.len();
        let (mut cut_owner, mut cut_remote) = (Vec::with_capacity(k), Vec::with_capacity(k));
        let (mut row_off, mut cols) = (Vec::with_capacity(k), Vec::with_capacity(k));
        let (mut boundary, mut cut_off) = (Vec::with_capacity(k), Vec::with_capacity(k));
        let (mut bb_off, mut bb_adj) = (Vec::with_capacity(k), Vec::with_capacity(k));
        for s in shards {
            let i = s.index;
            let mut owner = Vec::with_capacity(s.cut_neighbors.len());
            let mut remote = Vec::with_capacity(s.cut_neighbors.len());
            let (local_off, local_cols) = (s.local.row_offsets(), s.local.col_indices());
            let mut offs = Vec::with_capacity(s.boundary.len() + 1);
            offs.push(0u32);
            let mut adj = Vec::new();
            for (b, &v) in s.boundary.iter().enumerate() {
                let me = keys[i][b];
                for &gid in s.cut_neighbors_of(b) {
                    let o = partition.shard_of(gid);
                    let slot = slot_of[o][(gid - shards[o].start) as usize];
                    assert_ne!(
                        slot, NO_SLOT,
                        "cut neighbor must be on its owner's boundary"
                    );
                    owner.push(o as u32);
                    remote.push(slot | larger(keys[o][slot as usize] > me));
                }
                let v = v as usize;
                for &u in &local_cols[local_off[v]..local_off[v + 1]] {
                    let slot = slot_of[i][u as usize];
                    if slot != NO_SLOT {
                        adj.push(u | larger(keys[i][slot as usize] > me));
                    }
                }
                offs.push(adj.len() as u32);
            }
            cut_owner.push(owner);
            cut_remote.push(remote);
            row_off.push(offsets_u32(local_off));
            cols.push(DeviceBuffer::from_slice(local_cols));
            boundary.push(DeviceBuffer::from_slice(&s.boundary));
            cut_off.push(offsets_u32(&s.cut_offsets));
            bb_off.push(DeviceBuffer::from_slice(&offs));
            bb_adj.push(DeviceBuffer::from_slice(&adj));
        }

        CutPlan {
            partition,
            cut_owner,
            cut_remote,
            row_off,
            cols,
            boundary,
            cut_off,
            bb_off,
            bb_adj,
        }
    }

    /// The partition the tables were built from.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }
}

/// Host-side addressing of the halo exchange, built per request from the
/// [`CutPlan`] and the round-1 conflict frontier (setup metadata,
/// captured by kernels the way the two-kernel vgpu compaction captures
/// its host mirror of the scanned ranks). Every lookup is a table index:
/// no search over a boundary or a send list.
///
/// For every ordered peer pair `(exporter i, importer j)` the exporter
/// keeps a **send list** — the sorted slots of `i`'s boundary that the
/// cut edges of `j`'s *conflicted* slots reference — and the importer's
/// halo replica is the concatenation of those send-list segments.
/// Restricting to frontier edges is sound because the frontier only
/// ever shrinks (new conflicts arise solely between same-round
/// changers, which are already in it), so colors of slots no frontier
/// edge touches are never examined; they never travel and never occupy
/// memory. A cut edge addresses its remote endpoint with one
/// precomputed halo position, packed with the rank bit the conflict
/// rule needs.
struct CutAddressing {
    /// Sorted peer shard ids per shard (symmetric: `i` lists `j` iff
    /// `j` lists `i`).
    peers: Vec<Vec<usize>>,
    /// `sl[i][j]`: sorted boundary slots of exporter `i` referenced by
    /// importer `j` (empty unless `j ∈ peers[i]`).
    sl: Vec<Vec<Vec<u32>>>,
    /// `rank[i][j][slot]`: the position of `slot` in `sl[i][j]`, or
    /// `NO_SLOT` when `j` does not reference it. Empty when `j`
    /// references no slot of `i`.
    rank: Vec<Vec<Vec<u32>>>,
    /// Per importer, per peer (aligned with `peers`): segment offset in
    /// the importer's halo replica.
    seg_off: Vec<Vec<u32>>,
    /// Total halo length per importer.
    halo_len: Vec<usize>,
    /// Per importer, per cut edge: packed halo position
    /// (`pos | LARGER_BIT`; only edges of frontier slots are ever read,
    /// the rest stay zero).
    halo_idx: Vec<Vec<u32>>,
}

impl CutAddressing {
    fn build(plan: &CutPlan, frontier: &[Vec<u32>]) -> CutAddressing {
        let shards = plan.partition.shards();
        let k = shards.len();

        // Pass 1: mark, per (exporter, importer) pair, the exporter
        // slots that the importer's frontier edges reference.
        let mut rank: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); k]; k];
        for s in shards {
            let (owner, remote) = (&plan.cut_owner[s.index], &plan.cut_remote[s.index]);
            for &b in &frontier[s.index] {
                let b = b as usize;
                for e in s.cut_offsets[b]..s.cut_offsets[b + 1] {
                    let o = owner[e] as usize;
                    let marks = &mut rank[o][s.index];
                    if marks.is_empty() {
                        *marks = vec![NO_SLOT; shards[o].boundary.len()];
                    }
                    marks[(remote[e] & !LARGER_BIT) as usize] = 0;
                }
            }
        }

        // A mark vector walked in ascending slot order yields the send
        // list, and the running count is each marked slot's rank.
        let mut sl: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); k]; k];
        for (ranks, lists) in rank.iter_mut().zip(&mut sl) {
            for (marks, list) in ranks.iter_mut().zip(lists) {
                for (slot, r) in marks.iter_mut().enumerate() {
                    if *r != NO_SLOT {
                        *r = list.len() as u32;
                        list.push(slot as u32);
                    }
                }
            }
        }
        let peers: Vec<Vec<usize>> = (0..k)
            .map(|i| {
                (0..k)
                    .filter(|&j| !sl[i][j].is_empty() || !sl[j][i].is_empty())
                    .collect()
            })
            .collect();

        // Pass 2: importer-side halo layout and per-edge positions.
        let mut seg_off = Vec::with_capacity(k);
        let mut halo_len = Vec::with_capacity(k);
        let mut halo_idx = Vec::with_capacity(k);
        let mut seg_of = vec![0u32; k];
        for j in 0..k {
            let mut offs = Vec::with_capacity(peers[j].len());
            let mut len = 0u32;
            for &o in &peers[j] {
                offs.push(len);
                seg_of[o] = len;
                len += sl[o][j].len() as u32;
            }
            let s = &shards[j];
            let (owner, remote) = (&plan.cut_owner[j], &plan.cut_remote[j]);
            let mut idx = vec![0u32; s.cut_neighbors.len()];
            for &b in &frontier[j] {
                let b = b as usize;
                for e in s.cut_offsets[b]..s.cut_offsets[b + 1] {
                    let o = owner[e] as usize;
                    let slot = (remote[e] & !LARGER_BIT) as usize;
                    idx[e] = (seg_of[o] + rank[o][j][slot]) | (remote[e] & LARGER_BIT);
                }
            }
            seg_off.push(offs);
            halo_len.push(len as usize);
            halo_idx.push(idx);
        }

        CutAddressing {
            peers,
            sl,
            rank,
            seg_off,
            halo_len,
            halo_idx,
        }
    }

    /// The position of exporter `i`'s `slot` in its send list to
    /// importer `j`, if `j` references the slot.
    fn rank_of(&self, i: usize, j: usize, slot: u32) -> Option<u32> {
        self.rank[i][j]
            .get(slot as usize)
            .copied()
            .filter(|&r| r != NO_SLOT)
    }
}

/// Per-device state of the conflict loop. The six read-only tables
/// (`row_off`, `cols`, `boundary`, `cut_off`, `bb_off`, `bb_adj`) are
/// borrowed from the [`CutPlan`], where they stay resident across
/// requests. Per request, `colors` and `halo_idx` are fresh buffers
/// filled by an unmetered host copy, and the slot-shaped working buffers
/// are fresh zeroed ones. The graph-shaped data (`colors`, the local
/// CSR) is what the speculative run already had on the device (its
/// uploaded shard and its own output), so the model bills no second
/// upload for it; the addressing tables are host-built setup metadata;
/// and the contents of the working buffers only ever move via metered
/// kernels and transfers.
struct DevState<'a> {
    i: usize,
    dev: &'a Device,
    start: VertexId,
    /// Boundary slot count.
    b: usize,
    /// Owned-vertex colors: the merge step's per-shard slice, which is
    /// exactly the shard's own speculative output.
    colors: DeviceBuffer<u32>,
    /// The shard's local CSR, as the speculative run uploaded it.
    row_off: &'a DeviceBuffer<u32>,
    cols: &'a DeviceBuffer<u32>,
    /// Slot → local vertex id.
    boundary: &'a DeviceBuffer<u32>,
    /// Slot-space CSR of cut edges (offsets into `halo_idx`).
    cut_off: &'a DeviceBuffer<u32>,
    /// Per cut edge: packed halo position (`pos | LARGER_BIT`).
    halo_idx: DeviceBuffer<u32>,
    /// Local boundary↔boundary adjacency (offsets + packed local ids).
    bb_off: &'a DeviceBuffer<u32>,
    bb_adj: &'a DeviceBuffer<u32>,
    /// Concatenated send-list color replica from all peers.
    halo: DeviceBuffer<u32>,
    /// Per-slot local-edge detection bits (`HAS_SMALLER`/`HAS_LARGER`).
    partial: DeviceBuffer<u32>,
    /// Per-slot flag (`CONFLICT`/`CHANGED`).
    flag: DeviceBuffer<u32>,
    /// Per-slot staged replacement color (valid where `CHANGED`).
    staged: DeviceBuffer<u32>,
    /// Conflict frontier: the slots this round scans (host-mirrored
    /// slot list, captured by kernels like the two-kernel compaction's
    /// host rank mirror; seeded from the merge step's
    /// host-side round-1 detection, then maintained by the per-round
    /// flag pre-pass).
    front_host: Vec<u32>,
    /// Slots that changed in the last commit (host mirror, drives the
    /// per-peer delta filtering).
    changed_slots: Vec<u32>,
}

/// One prepared shipment for the current round, issued in tournament
/// order (see [`tournament_pairs`]).
enum Ship {
    /// A full send-list segment, landing at the given halo offset.
    Full(DeviceBuffer<u32>, usize),
    /// Compacted `(position, color)` pairs for the importer to scatter.
    Delta(DeviceBuffer<u64>),
}

/// An importer's received delta: `(exporter, pairs, completion event)`.
type Incoming = (usize, DeviceBuffer<u64>, TransferEvent);

/// Orders the round's transfers as a round-robin tournament: waves of
/// engine-disjoint device pairs, each followed by its reverse
/// direction. Every transfer occupies both endpoints' copy engines for
/// its whole duration, so issuing in naive exporter order chains
/// transfers that could run in parallel; the tournament order lets the
/// engines run `n/2` disjoint transfers at a time, which roughly halves
/// the exchange makespan on an all-to-all cut.
fn tournament_pairs(n: usize) -> Vec<(usize, usize)> {
    let m = if n.is_multiple_of(2) { n } else { n + 1 };
    let mut arr: Vec<usize> = (0..m).collect();
    let mut out = Vec::new();
    for _ in 0..m.saturating_sub(1) {
        let wave: Vec<(usize, usize)> = (0..m / 2)
            .map(|k| (arr[k], arr[m - 1 - k]))
            .filter(|&(a, b)| a < n && b < n)
            .collect();
        out.extend(wave.iter().copied());
        out.extend(wave.iter().map(|&(a, b)| (b, a)));
        arr[1..].rotate_right(1);
    }
    out
}

#[derive(Default)]
struct ResolveStats {
    rounds: u32,
    halo_bytes: u64,
    halo_bytes_delta: u64,
    changed_boundary: u64,
    clean: bool,
    /// When the loop handed off (`!clean`): the surviving frontier, as
    /// shard-space vertex ids. It holds both endpoints of every edge
    /// the loop left monochromatic.
    tail: Vec<VertexId>,
}

impl DevState<'_> {
    /// This round's scan extent (0 = nothing to do).
    fn extent(&self) -> usize {
        self.front_host.len()
    }
}

/// Runs the bounded speculate-recolor loop on the shards' own devices,
/// updating the shard-space `colors` in place.
///
/// Round structure (the tentpole's `max(compute, transfer)` shape):
///
/// 1. exporters with changes issue their transfers — round 1 seeds each
///    peer's send-list segment with the speculative colors (restricted
///    to the host-detected conflict frontier's edges), landing directly
///    in the importer's halo replica; later rounds ship the per-peer
///    compacted `(position, color)` pairs (or re-ship the full segment
///    when more than half of it changed — whichever is smaller);
/// 2. every shard scans the **local** boundary↔boundary edges of its
///    frontier while those transfers are in flight (round 1 skips this:
///    speculative colorings are proper within their shard, so the first
///    local conflict can only appear after a recolor);
/// 3. each importer then awaits its transfers (billing only the
///    uncovered remainder), scatters any delta pairs into its halo, and
///    recolors: round 1 runs mex directly over the host-detected
///    changed set, later rounds scan the frontier's cut edges, stage a
///    mex for the changers, and commit them.
///
/// A slot recolors when it has a smaller-gid same-colored neighbor and
/// no larger-gid one; the largest member of every monochromatic cluster
/// therefore always acts, so a round with zero changes anywhere proves
/// the cut is clean. New conflicts can only arise between two vertices
/// that both changed in the same round — both carry `CONFLICT` and stay
/// in the frontier — so the frontier never misses a live conflict.
fn resolve_conflicts(
    plan: &CutPlan,
    devices: &[Device],
    colors: &mut [u32],
    cfg: &ShardedConfig,
) -> ResolveStats {
    let shards = plan.partition.shards();
    let init = InitialConflicts::compute(plan, colors);
    let addr = CutAddressing::build(plan, &init.frontier);

    let mut states: Vec<Option<DevState>> = shards
        .iter()
        .zip(devices)
        .map(|(s, dev)| {
            if s.boundary.is_empty() {
                return None;
            }
            let start = s.start as usize;
            let i = s.index;
            Some(DevState {
                i,
                dev,
                start: s.start,
                b: s.boundary.len(),
                colors: DeviceBuffer::from_slice(&colors[start..start + s.n_owned()]),
                row_off: &plan.row_off[i],
                cols: &plan.cols[i],
                boundary: &plan.boundary[i],
                cut_off: &plan.cut_off[i],
                halo_idx: DeviceBuffer::from_slice(&addr.halo_idx[i]),
                bb_off: &plan.bb_off[i],
                bb_adj: &plan.bb_adj[i],
                halo: DeviceBuffer::zeroed(addr.halo_len[i]),
                partial: DeviceBuffer::zeroed(s.boundary.len()),
                flag: DeviceBuffer::zeroed(s.boundary.len()),
                staged: DeviceBuffer::zeroed(s.boundary.len()),
                front_host: init.frontier[i].clone(),
                changed_slots: Vec::new(),
            })
        })
        .collect();

    // Analytic full-replication volume of one round: every boundary
    // color to every peer (what the pre-send-list exchange shipped).
    let per_round_full: u64 = states
        .iter()
        .flatten()
        .map(|st| 4 * st.b as u64 * addr.peers[st.i].len() as u64)
        .sum();
    let total_boundary: usize = states.iter().flatten().map(|st| st.b).sum();
    let tail_cutoff = total_boundary / TAIL_DIVISOR;

    let mut stats = ResolveStats::default();

    for round in 1..=MAX_CONFLICT_ROUNDS {
        stats.rounds = round;
        let mut sync = gc_telemetry::span("shard_sync");
        sync.attr("round", round);

        // Which shards ship this round (round 1: everyone; later: only
        // shards whose last commit changed something), and which still
        // scan (a drained frontier never refills — a remote recolor
        // can't re-conflict a vertex whose color it already sees).
        let dirty: Vec<bool> = states
            .iter()
            .map(|st| {
                st.as_ref()
                    .is_some_and(|st| round == 1 || !st.changed_slots.is_empty())
            })
            .collect();
        let live: Vec<bool> = states
            .iter()
            .map(|st| st.as_ref().is_some_and(|st| st.extent() > 0))
            .collect();

        // Issue the exchange. Full shipments (round 1's seed, and any
        // later segment where the delta would outweigh it) land directly
        // in the importer's halo segment — a P2P copy to an offset
        // pointer, no apply kernel; delta shipments land in a fresh
        // exact-sized receive buffer and are scattered by
        // `shard::apply_delta`.
        let mut ex = gc_telemetry::span("halo_exchange");
        ex.attr("round", round);
        ex.attr(
            "kind",
            if round == 1 || !cfg.delta_halo {
                "full"
            } else {
                "delta"
            },
        );
        let mut bytes_this_round = 0u64;
        let n = states.len();
        let mut halo_evs: Vec<Vec<TransferEvent>> = (0..n).map(|_| Vec::new()).collect();
        // Incoming deltas per importer: (exporter, pairs, completion).
        let mut incoming: Vec<Vec<Incoming>> = (0..n).map(|_| Vec::new()).collect();
        // Prepared shipments, keyed [exporter][importer], issued below
        // in tournament order.
        let mut ships: Vec<Vec<Option<Ship>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for i in 0..n {
            if !dirty[i] {
                continue;
            }
            let st = states[i].as_ref().unwrap();
            // Per-peer packed deltas: positions are send-list ranks, so
            // the importer can scatter without any translation.
            let filtered: Vec<Vec<(u32, u32)>> = addr.peers[i]
                .iter()
                .map(|&j| {
                    if round == 1 || !live[j] {
                        return Vec::new();
                    }
                    st.changed_slots
                        .iter()
                        .filter_map(|&s| addr.rank_of(i, j, s).map(|r| (s, r)))
                        .collect()
                })
                .collect();

            // Build and launch the per-peer packing kernel for the delta
            // shipments of this round (one launch covers every peer).
            let ship_full: Vec<bool> = addr.peers[i]
                .iter()
                .enumerate()
                .map(|(p, &j)| {
                    live[j]
                        && (round == 1
                            || !cfg.delta_halo
                            || 8 * filtered[p].len() >= 4 * addr.sl[i][j].len())
                })
                .collect();
            let mut new_delta_bufs: Vec<DeviceBuffer<u64>> =
                Vec::with_capacity(addr.peers[i].len());
            let mut pack_starts = vec![0usize];
            let mut pack_jobs: Vec<(usize, &Vec<(u32, u32)>)> = Vec::new();
            for (p, &j) in addr.peers[i].iter().enumerate() {
                if live[j] && !ship_full[p] && !filtered[p].is_empty() {
                    pack_jobs.push((p, &filtered[p]));
                    pack_starts.push(pack_starts.last().unwrap() + filtered[p].len());
                }
                new_delta_bufs.push(DeviceBuffer::zeroed(if live[j] && !ship_full[p] {
                    filtered[p].len()
                } else {
                    0
                }));
            }
            let pack_total = *pack_starts.last().unwrap();
            if pack_total > 0 {
                let staged = &st.staged;
                let bufs: Vec<&DeviceBuffer<u64>> =
                    pack_jobs.iter().map(|&(p, _)| &new_delta_bufs[p]).collect();
                let jobs = &pack_jobs;
                let starts = &pack_starts;
                st.dev.launch("shard::pack_delta", pack_total, |t| {
                    let idx = t.tid();
                    let mut p = 0usize;
                    while idx >= starts[p + 1] {
                        p += 1;
                        t.charge(2);
                    }
                    let k = idx - starts[p];
                    let (slot, pos) = jobs[p].1[k];
                    let c = t.read(staged, slot as usize);
                    t.charge(COMPACT_CYCLES);
                    t.write_seq(bufs[p], k, ((pos as u64) << 32) | c as u64);
                });
            }

            // Full segments that must be re-gathered from current colors
            // (round 1 uses the resident speculative export instead).
            for (p, &j) in addr.peers[i].iter().enumerate() {
                if !live[j] || !ship_full[p] || addr.sl[i][j].is_empty() {
                    continue;
                }
                let list = &addr.sl[i][j];
                let seg: DeviceBuffer<u32> = if round == 1 {
                    // The merge epilogue materializes each peer's
                    // round-1 segment from the speculative colors the
                    // device already holds.
                    let st_colors = &colors[shards[i].start as usize..];
                    DeviceBuffer::from_slice(
                        &list
                            .iter()
                            .map(|&s| st_colors[shards[i].boundary[s as usize] as usize])
                            .collect::<Vec<u32>>(),
                    )
                } else {
                    let out = DeviceBuffer::zeroed(list.len());
                    let (boundary, colors_b) = (&st.boundary, &st.colors);
                    st.dev.launch("shard::gather_pair", list.len(), |t| {
                        let k = t.tid();
                        let v = t.read(boundary, list[k] as usize) as usize;
                        let c = t.read(colors_b, v);
                        t.write_seq(&out, k, c);
                    });
                    out
                };
                let p_back = addr.peers[j].iter().position(|&x| x == i).unwrap();
                let off = addr.seg_off[j][p_back] as usize;
                ships[i][j] = Some(Ship::Full(seg, off));
            }
            // Delta shipments.
            for (p, buf) in new_delta_bufs.into_iter().enumerate() {
                let j = addr.peers[i][p];
                if live[j] && !ship_full[p] && !buf.is_empty() {
                    ships[i][j] = Some(Ship::Delta(buf));
                }
            }
        }

        // Issue everything in tournament order: waves of engine-disjoint
        // pairs keep all copy engines busy at once.
        for (a, b) in tournament_pairs(n) {
            let Some(ship) = ships[a][b].take() else {
                continue;
            };
            let src_dev = states[a].as_ref().unwrap().dev;
            let dst_st = states[b].as_ref().unwrap();
            match ship {
                Ship::Full(seg, off) => {
                    let ev = src_dev.peer_transfer_async(dst_st.dev, &seg, &dst_st.halo, off);
                    bytes_this_round += seg.size_bytes();
                    halo_evs[b].push(ev);
                }
                Ship::Delta(buf) => {
                    let dst = DeviceBuffer::<u64>::zeroed(buf.len());
                    let ev = src_dev.peer_transfer_async(dst_st.dev, &buf, &dst, 0);
                    bytes_this_round += buf.size_bytes();
                    incoming[b].push((a, dst, ev));
                }
            }
        }
        stats.halo_bytes_delta += bytes_this_round;
        if ex.is_recording() {
            ex.attr("bytes", bytes_this_round);
        }
        drop(ex);

        // Local-edge detection runs while the exchange is in flight. It
        // reads only this shard's colors, which no transfer touches —
        // and round 1 skips it outright: a speculative coloring is
        // proper within its shard, so the first local conflict can only
        // be created by a recolor.
        if round > 1 {
            for st in states.iter().flatten() {
                let extent = st.extent();
                if extent == 0 {
                    continue;
                }
                let fr = &st.front_host;
                let (boundary, bb_off, bb_adj) = (&st.boundary, &st.bb_off, &st.bb_adj);
                let (colors_b, partial) = (&st.colors, &st.partial);
                st.dev.launch("shard::detect_local", extent, |t| {
                    let idx = t.tid();
                    let b = fr[idx] as usize;
                    let v = t.read(boundary, b) as usize;
                    let my = t.read(colors_b, v);
                    let mut bits = 0u32;
                    if my != 0 {
                        let lo = t.read(bb_off, b) as usize;
                        let hi = t.read(bb_off, b + 1) as usize;
                        for e in lo..hi {
                            let packed = t.read(bb_adj, e);
                            let u = (packed & !LARGER_BIT) as usize;
                            if t.read(colors_b, u) == my {
                                bits |= if packed & LARGER_BIT != 0 {
                                    HAS_LARGER
                                } else {
                                    HAS_SMALLER
                                };
                            }
                        }
                    }
                    t.write(partial, b, bits);
                });
            }
        }

        // Await the exchange (billing only what local detection did not
        // hide), scatter the deltas, finish detection over the cut
        // edges, and commit.
        let mut changed_this_round = 0u64;
        for jj in 0..n {
            let Some(st) = states[jj].as_ref() else {
                continue;
            };
            for ev in halo_evs[jj].drain(..) {
                st.dev.wait_event(&ev);
            }
            let deltas = std::mem::take(&mut incoming[jj]);
            for (_, _, ev) in &deltas {
                st.dev.wait_event(ev);
            }
            if !deltas.is_empty() {
                let mut starts = vec![0usize];
                let mut seg_offs = Vec::new();
                for (from, buf, _) in &deltas {
                    starts.push(starts.last().unwrap() + buf.len());
                    let p = addr.peers[jj].iter().position(|&x| x == *from).unwrap();
                    seg_offs.push(addr.seg_off[jj][p]);
                }
                let total = *starts.last().unwrap();
                if total > 0 {
                    let bufs: Vec<&DeviceBuffer<u64>> = deltas.iter().map(|(_, b, _)| b).collect();
                    let halo = &st.halo;
                    let (starts, seg_offs) = (&starts, &seg_offs);
                    st.dev.launch("shard::apply_delta", total, |t| {
                        let idx = t.tid();
                        let mut p = 0usize;
                        while idx >= starts[p + 1] {
                            p += 1;
                            t.charge(2);
                        }
                        let pair = t.read(bufs[p], idx - starts[p]);
                        let pos = (pair >> 32) as usize;
                        t.write(halo, seg_offs[p] as usize + pos, pair as u32);
                    });
                }
            }

            let extent = st.extent();
            if extent == 0 {
                continue;
            }
            let (next_host, changed_host);
            if round == 1 {
                // The host-side seed already classified the frontier:
                // round 1 on the device is just the mex + commit over
                // the changed set (reading the freshly seeded halo).
                next_host = init.frontier[jj].clone();
                changed_host = init.changed[jj].clone();
                if !changed_host.is_empty() {
                    let (boundary, row_off, cols) = (&st.boundary, &st.row_off, &st.cols);
                    let (cut_off, halo_idx) = (&st.cut_off, &st.halo_idx);
                    let (colors_b, halo, staged) = (&st.colors, &st.halo, &st.staged);
                    let slots = &changed_host;
                    st.dev
                        .launch("shard::mex_initial", changed_host.len(), |t| {
                            let idx = t.tid();
                            let b = slots[idx] as usize;
                            let v = t.read(boundary, b) as usize;
                            let lo = t.read(cut_off, b) as usize;
                            let hi = t.read(cut_off, b + 1) as usize;
                            let llo = t.read(row_off, v) as usize;
                            let lhi = t.read(row_off, v + 1) as usize;
                            let mut forbidden = Forbidden::new();
                            for u in t.read_seq_run(cols, llo, lhi).iter() {
                                forbidden.push(t.read(colors_b, u as usize));
                            }
                            for e in lo..hi {
                                let packed = t.read(halo_idx, e);
                                forbidden.push(t.read(halo, (packed & !LARGER_BIT) as usize));
                            }
                            t.write(staged, b, forbidden.mex());
                        });
                }
            } else {
                let fr = &st.front_host;
                let (boundary, row_off, cols) = (&st.boundary, &st.row_off, &st.cols);
                let (cut_off, halo_idx) = (&st.cut_off, &st.halo_idx);
                let (colors_b, halo, partial) = (&st.colors, &st.halo, &st.partial);
                let (flag, staged) = (&st.flag, &st.staged);
                st.dev.launch("shard::detect_cut", extent, |t| {
                    let idx = t.tid();
                    let b = fr[idx] as usize;
                    let v = t.read(boundary, b) as usize;
                    let my = t.read(colors_b, v);
                    let mut bits = t.read(partial, b);
                    let lo = t.read(cut_off, b) as usize;
                    let hi = t.read(cut_off, b + 1) as usize;
                    if my != 0 {
                        for e in lo..hi {
                            let packed = t.read(halo_idx, e);
                            if t.read(halo, (packed & !LARGER_BIT) as usize) == my {
                                bits |= if packed & LARGER_BIT != 0 {
                                    HAS_LARGER
                                } else {
                                    HAS_SMALLER
                                };
                            }
                        }
                    }
                    let changed = bits & HAS_SMALLER != 0 && bits & HAS_LARGER == 0;
                    let fl = u32::from(bits != 0) * CONFLICT + u32::from(changed) * CHANGED;
                    t.write(flag, b, fl);
                    if changed {
                        // Second pass only for the (few) recoloring
                        // slots: the smallest positive color no
                        // neighbor holds.
                        let llo = t.read(row_off, v) as usize;
                        let lhi = t.read(row_off, v + 1) as usize;
                        let mut forbidden = Forbidden::new();
                        for u in t.read_seq_run(cols, llo, lhi).iter() {
                            forbidden.push(t.read(colors_b, u as usize));
                        }
                        for e in lo..hi {
                            let packed = t.read(halo_idx, e);
                            forbidden.push(t.read(halo, (packed & !LARGER_BIT) as usize));
                        }
                        t.write(staged, b, forbidden.mex());
                    }
                });

                // Frontier maintenance is a host pass over the flag
                // buffer (stable between the detect above and the commit
                // below), like the two-kernel vgpu compaction's host
                // mirror of the scanned ranks.
                let mut nh = Vec::new();
                let mut ch = Vec::new();
                for &b in &st.front_host {
                    let fl = st.flag.get(b as usize);
                    if fl & CONFLICT != 0 {
                        nh.push(b);
                    }
                    if fl & CHANGED != 0 {
                        ch.push(b);
                    }
                }
                next_host = nh;
                changed_host = ch;
            }
            if !changed_host.is_empty() {
                let (staged, boundary, colors_b) = (&st.staged, &st.boundary, &st.colors);
                let slots = &changed_host;
                st.dev.launch("shard::commit", changed_host.len(), |t| {
                    let idx = t.tid();
                    let b = slots[idx] as usize;
                    let c = t.read(staged, b);
                    let v = t.read(boundary, b) as usize;
                    t.charge(COMPACT_CYCLES);
                    t.write(colors_b, v, c);
                });
            }
            changed_this_round += changed_host.len() as u64;
            let st = states[jj].as_mut().unwrap();
            st.front_host = next_host;
            st.changed_slots = changed_host;
        }

        stats.changed_boundary += changed_this_round;
        if sync.is_recording() {
            sync.attr("changed", changed_this_round);
        }
        if changed_this_round == 0 {
            stats.clean = true;
            break;
        }
        if changed_this_round as usize <= tail_cutoff {
            // The surviving conflict set is a sliver of the boundary:
            // another exchange round's fixed costs would exceed the
            // remaining work, so the host greedy pass finishes it.
            break;
        }
    }
    stats.halo_bytes = stats.rounds as u64 * per_round_full;
    if !stats.clean {
        stats.tail = states
            .iter()
            .flatten()
            .flat_map(|st| {
                let boundary = &shards[st.i].boundary;
                st.front_host
                    .iter()
                    .map(move |&b| st.start + boundary[b as usize])
            })
            .collect();
    }

    // Merge resolved colors back: one metered device→host download per
    // shard (interior colors are unchanged but ride along — the whole
    // color array comes down in one contiguous copy, which is cheaper
    // than a gather kernel plus a scattered download).
    for st in states.iter().flatten() {
        let out = st.dev.download(&st.colors);
        colors[st.start as usize..st.start as usize + out.len()].copy_from_slice(&out);
    }
    stats
}

#[cfg(test)]
mod tests;
