//! The coloring service proper: a bounded admission queue feeding a pool
//! of worker threads, each owning a `gc_vgpu::Device`.
//!
//! Lifecycle of a request:
//!
//! 1. A [`ServiceHandle`] submits it. `try_submit` fails fast with
//!    [`ServiceError::QueueFull`] when the bounded queue is full;
//!    `submit` blocks, applying backpressure to the producer.
//! 2. A worker dequeues it. If the request carried a deadline and has
//!    already waited past it, the worker sheds it with
//!    [`ServiceError::DeadlineExceeded`] without touching a device —
//!    shedding at dequeue keeps the queue drain rate up under overload,
//!    which is the whole point of deadline-based admission control.
//! 3. The policy engine resolves the objective to an implementation;
//!    the result cache is consulted; on a miss the algorithm runs and
//!    the coloring is verified proper on the host before it is returned
//!    and cached.
//!
//! All coordination is `std::sync::mpsc` + `Mutex`; the crate pulls in
//! no dependencies beyond the workspace's own graph/core/vgpu crates.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use gc_core::verify::is_proper;
use gc_graph::{Csr, Partition, PartitionStrategy};
use gc_shard::CutPlan;

use crate::cache::{graph_fingerprint, CacheKey, LruCache};
use crate::policy;
use crate::request::{ColorRequest, ColorResponse, RequestMetrics, ServiceError};
use crate::stats::{ServiceStats, StatsSnapshot};

/// Tuning knobs for [`ColoringService::start`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads, each with its own virtual device.
    pub workers: usize,
    /// Bounded admission-queue capacity. `try_submit` rejects beyond
    /// this; `submit` blocks.
    pub queue_capacity: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// When set, every worker installs this tracer and each request is
    /// recorded as a span tree: `request` → `queue_wait` /
    /// `policy_decide` / `color` (with the colorer's per-iteration spans
    /// and kernel events inside) / `verify` / `cache_insert`.
    pub tracer: Option<gc_telemetry::Tracer>,
    /// The registry the service counts into: counters, queue gauges, and
    /// per-colorer latency histograms (see [`crate::stats`]). `None`
    /// gives the service a private registry, so two services started
    /// from clones of one config never sum each other's counts; a
    /// registry handed to two services sums them.
    pub metrics: Option<gc_telemetry::MetricsRegistry>,
    /// Virtual devices per request. At 1 (the default) each worker
    /// colors on a single device; above 1, GPU-backed requests are
    /// sharded across this many devices via [`gc_shard::run_sharded`]
    /// (edge-cut partitioning, per-device runs, boundary-conflict
    /// resolution). CPU colorers ignore this and run single-device.
    pub devices: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 128,
            tracer: None,
            metrics: None,
            devices: 1,
        }
    }
}

impl ServiceConfig {
    /// Traces every request through this tracer.
    pub fn with_tracer(mut self, tracer: gc_telemetry::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Shards every GPU-backed request across `n` virtual devices
    /// (clamped to at least 1).
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n.max(1);
        self
    }

    /// Publishes service metrics into this registry.
    pub fn with_metrics(mut self, metrics: gc_telemetry::MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// One queued unit of work: the request plus its reply channel and the
/// submission timestamp the deadline is measured from.
struct WorkItem {
    request: ColorRequest,
    submitted_at: Instant,
    reply: SyncSender<Result<ColorResponse, ServiceError>>,
}

/// Queue protocol. `Stop` is a poison pill: shutdown enqueues one per
/// worker *behind* all pending work, so the queue drains before the
/// pool exits. (Relying on sender-disconnect instead would deadlock —
/// every live `ServiceHandle` keeps the channel connected.)
enum Job {
    Work(WorkItem),
    Stop,
}

type SharedReceiver = Arc<Mutex<Receiver<Job>>>;
type ResultCache = Arc<LruCache<Arc<ColorResponse>>>;

/// An in-process graph-coloring service. Create with [`start`], hand
/// out clonable [`ServiceHandle`]s, and call [`shutdown`] (or drop) to
/// join the workers.
///
/// [`start`]: ColoringService::start
/// [`shutdown`]: ColoringService::shutdown
pub struct ColoringService {
    tx: SyncSender<Job>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ServiceStats>,
    cache: ResultCache,
    queue_capacity: usize,
}

impl ColoringService {
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let (tx, rx) = sync_channel::<Job>(config.queue_capacity.max(1));
        let rx: SharedReceiver = Arc::new(Mutex::new(rx));
        let stats = Arc::new(ServiceStats::with_registry(
            config.metrics.unwrap_or_default(),
        ));
        let cache: ResultCache = Arc::new(LruCache::new(config.cache_capacity));

        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                let cache = Arc::clone(&cache);
                let tracer = config.tracer.clone();
                let devices = config.devices.max(1);
                std::thread::Builder::new()
                    .name(format!("gc-service-worker-{i}"))
                    .spawn(move || worker_loop(rx, stats, cache, tracer, devices))
                    .expect("spawn service worker")
            })
            .collect();

        ColoringService {
            tx,
            workers: handles,
            stats,
            cache,
            queue_capacity: config.queue_capacity.max(1),
        }
    }

    /// A clonable submission handle. Handles stay valid until the
    /// service shuts down; submissions after that fail with
    /// [`ServiceError::ShuttingDown`].
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            tx: self.tx.clone(),
            stats: Arc::clone(&self.stats),
            cache: Arc::clone(&self.cache),
            queue_capacity: self.queue_capacity,
        }
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Entries currently held by the result cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drains the queue (workers finish in-flight jobs) and joins every
    /// worker thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // One poison pill per worker, queued behind all pending work.
        for _ in 0..self.workers.len() {
            let _ = self.tx.send(Job::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ColoringService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Clonable submission endpoint for a running [`ColoringService`].
#[derive(Clone)]
pub struct ServiceHandle {
    tx: SyncSender<Job>,
    stats: Arc<ServiceStats>,
    cache: ResultCache,
    queue_capacity: usize,
}

/// A pending response. `recv` blocks until the worker replies.
pub struct ResponseTicket {
    rx: Receiver<Result<ColorResponse, ServiceError>>,
}

impl ResponseTicket {
    pub fn recv(self) -> Result<ColorResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }
}

impl ServiceHandle {
    /// Submits a request, blocking while the admission queue is full
    /// (producer-side backpressure).
    pub fn submit(&self, request: ColorRequest) -> ResponseTicket {
        let (item, ticket) = self.package(request);
        self.stats.on_submitted();
        gc_telemetry::instant("admitted", &[]);
        if self.tx.send(Job::Work(item)).is_err() {
            // Service dropped; the reply channel inside the job is gone,
            // so the ticket will yield ShuttingDown.
            self.stats.on_failed_at_submit();
        }
        ticket
    }

    /// Submits without blocking; a full queue returns
    /// [`ServiceError::QueueFull`] and the request back to the caller.
    pub fn try_submit(
        &self,
        request: ColorRequest,
    ) -> Result<ResponseTicket, (ColorRequest, ServiceError)> {
        let (item, ticket) = self.package(request);
        match self.tx.try_send(Job::Work(item)) {
            Ok(()) => {
                self.stats.on_submitted();
                gc_telemetry::instant("admitted", &[]);
                Ok(ticket)
            }
            Err(e) => {
                let (job, err) = match e {
                    TrySendError::Full(job) => {
                        self.stats.on_rejected();
                        gc_telemetry::instant(
                            "rejected",
                            &[("capacity", self.queue_capacity.to_string())],
                        );
                        (
                            job,
                            ServiceError::QueueFull {
                                capacity: self.queue_capacity,
                            },
                        )
                    }
                    TrySendError::Disconnected(job) => (job, ServiceError::ShuttingDown),
                };
                let Job::Work(item) = job else {
                    unreachable!("handles only send work")
                };
                Err((item.request, err))
            }
        }
    }

    /// Convenience: submit and wait for the response.
    pub fn color(&self, request: ColorRequest) -> Result<ColorResponse, ServiceError> {
        self.submit(request).recv()
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Carries a cached result across a graph mutation instead of
    /// dropping it.
    ///
    /// A front-end that mutated a graph and *repaired* the cached
    /// coloring incrementally (see `gc_shard::repair_frontier`) calls
    /// this with the old cache key, the new key (same colorer/seed/
    /// devices, `graph_fp` advanced along the version lineage via
    /// [`crate::cache::lineage_fingerprint`]), and the repaired, already
    /// re-verified response. The entry moves: it is removed under the old
    /// key and inserted under the new one, so the next
    /// [`ColorRequest::with_fingerprint`] request for the mutated graph is
    /// a cache hit — no from-scratch recolor — and the superseded version
    /// no longer holds a cache slot.
    ///
    /// The caller owns the proof obligations: `response.coloring` must
    /// be proper on the *new* graph, and `new_key.graph_fp` must
    /// identify it. Returns whether the old entry existed (the
    /// revalidated-stats counter only moves for genuine carries; a miss
    /// still inserts, which is harmless — it just warms the cache).
    ///
    /// One visible consequence of the move: two tracked graphs whose
    /// version-0 structures are identical share one cache entry (their
    /// structural fingerprints are equal). Mutating one moves that entry
    /// to its new version, so the other's next `Color` misses, recolors
    /// and verifies afresh.
    pub fn revalidate_cached(
        &self,
        old_key: &CacheKey,
        new_key: CacheKey,
        response: ColorResponse,
    ) -> bool {
        let had_old = self.cache.remove(old_key).is_some();
        let mut stored = response;
        // Stored entries are canonical misses; `cache_hit` is set on get.
        stored.cache_hit = false;
        self.cache.insert(new_key, Arc::new(stored));
        if had_old {
            self.stats.on_revalidated();
            gc_telemetry::instant("cache_revalidated", &[]);
        }
        had_old
    }

    fn package(&self, request: ColorRequest) -> (WorkItem, ResponseTicket) {
        let (reply, rx) = sync_channel(1);
        let item = WorkItem {
            request,
            submitted_at: Instant::now(),
            reply,
        };
        (item, ResponseTicket { rx })
    }
}

fn worker_loop(
    rx: SharedReceiver,
    stats: Arc<ServiceStats>,
    cache: ResultCache,
    tracer: Option<gc_telemetry::Tracer>,
    devices: usize,
) {
    // Install the tracer once per worker: each worker gets its own lane
    // (named after the thread), and every span opened below — including
    // the colorer's iteration spans and the device's kernel events —
    // lands on it.
    let _tracing = tracer.as_ref().map(|t| t.make_current());
    // Opt this worker into the device-buffer pool: every request after
    // the first for a given graph shape reuses the previous request's
    // allocations instead of fresh host allocations.
    gc_vgpu::pool::enable_for_thread();
    let mut partition = PartitionMemo::default();
    loop {
        // Hold the receiver lock only for the dequeue itself so other
        // workers can pull jobs while this one colors.
        let job = {
            let guard = rx.lock().unwrap();
            guard.recv()
        };
        let item = match job {
            Ok(Job::Work(item)) => item,
            // Poison pill, or the whole service (and its receiver
            // keep-alive) was dropped: exit.
            Ok(Job::Stop) | Err(_) => return,
        };
        let outcome = handle_job(&item, &stats, &cache, devices, &mut partition);
        // A dropped ticket just means the caller stopped waiting.
        let _ = item.reply.send(outcome);
    }
}

/// What determines a partition: the graph's fingerprint, the device
/// count and the strategy.
type PartitionKey = (u64, usize, PartitionStrategy);

/// The last partition a worker built, with the conflict loop's
/// partition-only tables ([`CutPlan`]). Sharded requests for one graph
/// version differ only in their seed, so they share it. A mutated graph
/// has a new lineage fingerprint and simply misses; one entry per
/// worker needs no lock and no capacity knob.
#[derive(Default)]
struct PartitionMemo(Option<(PartitionKey, CutPlan)>);

impl PartitionMemo {
    /// The cut plan of `g` (fingerprinted `graph_fp`) for `cfg`, built
    /// only when the last one was for another graph or shape.
    fn get(&mut self, g: &Csr, graph_fp: u64, cfg: &gc_shard::ShardedConfig) -> &CutPlan {
        let key = (graph_fp, cfg.devices, cfg.strategy);
        if !matches!(&self.0, Some((k, _)) if *k == key) {
            let _partition = gc_telemetry::span("partition");
            let partition = Partition::with_strategy(g, cfg.devices, cfg.strategy);
            self.0 = Some((key, CutPlan::new(partition)));
        }
        &self.0.as_ref().expect("memo was just filled").1
    }
}

fn handle_job(
    job: &WorkItem,
    stats: &ServiceStats,
    cache: &ResultCache,
    devices: usize,
    partition: &mut PartitionMemo,
) -> Result<ColorResponse, ServiceError> {
    let dequeued_at = Instant::now();
    stats.on_dequeued();

    // The request span covers the whole lifecycle, backdated to the
    // submission instant so the queue-wait child sits inside it.
    let mut req_span = gc_telemetry::span("request");
    if req_span.is_recording() {
        req_span.set_wall_start(job.submitted_at);
        req_span.attr("objective", &job.request.objective);
        req_span.attr("vertices", job.request.graph.num_vertices());
        req_span.attr("seed", job.request.seed);
        gc_telemetry::record_complete("queue_wait", job.submitted_at, dequeued_at, None, &[]);
    }

    let queued = dequeued_at.duration_since(job.submitted_at);
    if let Some(deadline) = job.request.deadline {
        if queued >= deadline {
            stats.on_shed();
            let queued_ms = queued.as_millis() as u64;
            req_span.attr("outcome", "shed");
            gc_telemetry::instant("shed", &[("queued_ms", queued_ms.to_string())]);
            return Err(ServiceError::DeadlineExceeded { queued_ms });
        }
    }

    let req = &job.request;
    let colorer = {
        let mut decide = gc_telemetry::span("policy_decide");
        let feats = policy::features(&req.graph);
        if decide.is_recording() {
            decide.attr("vertices", feats.vertices);
            decide.attr("avg_degree", format!("{:.3}", feats.avg_degree));
            decide.attr("degree_cv", format!("{:.3}", feats.degree_cv));
        }
        match policy::choose(&feats, &req.objective) {
            Ok(c) => {
                decide.attr("colorer", c.name());
                c
            }
            Err(e) => {
                drop(decide);
                stats.on_failed();
                req_span.attr("outcome", "failed");
                return Err(e);
            }
        }
    };
    req_span.attr("colorer", colorer.name());

    // CPU colorers have no devices to shard over; their effective device
    // count is always 1, which keeps their cache entries shared across
    // service configurations.
    let devices = if colorer.is_gpu() { devices.max(1) } else { 1 };
    if devices > 1 {
        req_span.attr("devices", devices);
    }

    // A caller-supplied fingerprint (the `gc-net` version-lineage path)
    // skips the O(E) structural rehash.
    let graph_fp = req
        .fingerprint
        .unwrap_or_else(|| graph_fingerprint(&req.graph));
    // MinColors results are cached under their own budget-tagged key so
    // a reduced coloring never shadows the base colorer's entry.
    let reduce_budget_ms = match &req.objective {
        crate::request::Objective::MinColors { budget_ms } => Some(*budget_ms),
        _ => None,
    };
    let key = CacheKey {
        graph_fp,
        colorer: colorer.name(),
        seed: req.seed,
        devices,
        reduce_budget_ms,
    };
    if let Some(cached) = cache.get(&key) {
        let mut resp = (*cached).clone();
        resp.cache_hit = true;
        resp.objective = req.objective.clone();
        stats.on_served(colorer.name(), resp.model_ms, true);
        req_span.attr("outcome", "cache_hit");
        gc_telemetry::instant("cache_hit", &[]);
        return Ok(resp);
    }

    // A MinColors miss can still reuse a cached *base* run of the
    // chosen colorer (primed by any objective): the post-pass accepts
    // any proper coloring, so only the reduction has to run.
    let base_key = CacheKey {
        reduce_budget_ms: None,
        ..key.clone()
    };
    let cached_base = if reduce_budget_ms.is_some() {
        cache.get(&base_key)
    } else {
        None
    };

    let mut resp = if let Some(base) = cached_base {
        gc_telemetry::instant("cache_hit_base", &[]);
        let mut resp = (*base).clone();
        resp.cache_hit = false;
        resp.objective = req.objective.clone();
        resp
    } else {
        // `Colorer::run` opens the `color` span (carrying the iteration
        // spans and kernel events) as a child of the request span. Above
        // one device the run goes through the sharded path instead: the
        // graph is partitioned, each shard colored on its own device, and
        // boundary conflicts resolved (overlapped delta halo exchange)
        // before the merged coloring comes back.
        let resp = if devices > 1 {
            // The service verifies the merged coloring itself below, so the
            // sharded path's own verification pass is redundant here.
            let cfg = gc_shard::ShardedConfig {
                verify: false,
                ..gc_shard::ShardedConfig::new(devices)
            };
            let plan = partition.get(&req.graph, graph_fp, &cfg);
            let sharded = gc_shard::run_sharded_with(&colorer, &req.graph, plan, req.seed, &cfg);
            stats.on_sharded(
                sharded.conflict_rounds,
                sharded.changed_boundary,
                sharded.halo_bytes,
                sharded.halo_bytes_delta,
                sharded.overlap_ratio,
            );
            ColorResponse {
                devices,
                conflict_rounds: sharded.conflict_rounds,
                halo_bytes: sharded.halo_bytes,
                halo_bytes_delta: sharded.halo_bytes_delta,
                changed_boundary: sharded.changed_boundary,
                overlap_ratio: sharded.overlap_ratio,
                ..single_device_response(&colorer, req, sharded.result)
            }
        } else {
            single_device_response(&colorer, req, colorer.run(&req.graph, req.seed))
        };

        let verified = {
            let _verify = gc_telemetry::span("verify");
            is_proper(&req.graph, resp.coloring.as_slice())
        };
        if let Err(v) = verified {
            stats.on_failed();
            req_span.attr("outcome", "improper");
            return Err(ServiceError::ImproperColoring(v));
        }

        if reduce_budget_ms.is_some() {
            // Prime the base entry so the next MinColors request (any
            // budget) and Explicit requests for this colorer both hit.
            let _insert = gc_telemetry::span("cache_insert");
            cache.insert(base_key, Arc::new(resp.clone()));
        }
        resp
    };

    if let Some(budget_ms) = reduce_budget_ms {
        // The iterated color-reduction post-pass, on its own device so
        // its transfers and kernels are metered apart from the base run.
        let mut colors = resp.coloring.as_slice().to_vec();
        let dev = gc_vgpu::Device::k40c();
        let outcome = gc_core::reduce::reduce_colors(
            &dev,
            &req.graph,
            &mut colors,
            gc_core::reduce::ReduceBudget::model_ms(budget_ms as f64),
        );
        let verified = {
            let _verify = gc_telemetry::span("verify");
            is_proper(&req.graph, &colors)
        };
        if let Err(v) = verified {
            stats.on_failed();
            req_span.attr("outcome", "improper");
            return Err(ServiceError::ImproperColoring(v));
        }
        resp.coloring = gc_core::color::Coloring::new(colors);
        resp.num_colors = outcome.colors_after;
        resp.colors_before = outcome.colors_before;
        resp.colors_after = outcome.colors_after;
        resp.reduction_passes = outcome.passes;
        resp.model_ms += outcome.model_ms;
        if req_span.is_recording() {
            req_span.attr("colors_before", outcome.colors_before);
            req_span.attr("reduction_passes", outcome.passes);
        }
    }

    {
        let _insert = gc_telemetry::span("cache_insert");
        cache.insert(key, Arc::new(resp.clone()));
    }
    stats.on_served(colorer.name(), resp.model_ms, false);
    if req_span.is_recording() {
        req_span.attr("outcome", "served");
        req_span.attr("num_colors", resp.num_colors);
        req_span.set_model_range(0.0, resp.model_ms);
    }
    Ok(resp)
}

/// The (not yet verified) response for one run of `colorer`, with the
/// sharding fields of a single-device run.
fn single_device_response(
    colorer: &gc_core::Colorer,
    req: &ColorRequest,
    result: gc_core::ColoringResult,
) -> ColorResponse {
    ColorResponse {
        metrics: result
            .profile
            .as_ref()
            .map(RequestMetrics::from_profile)
            .unwrap_or_default(),
        coloring: result.coloring,
        num_colors: result.num_colors,
        colorer: colorer.name(),
        objective: req.objective.clone(),
        model_ms: result.model_ms,
        iterations: result.iterations,
        cache_hit: false,
        verified: true,
        devices: 1,
        conflict_rounds: 0,
        halo_bytes: 0,
        halo_bytes_delta: 0,
        changed_boundary: 0,
        overlap_ratio: 0.0,
        colors_before: 0,
        colors_after: 0,
        reduction_passes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Objective;
    use gc_graph::generators::{cycle, grid2d, Stencil2d};
    use std::time::Duration;

    fn mesh() -> Arc<gc_graph::Csr> {
        Arc::new(grid2d(60, 60, Stencil2d::FivePoint))
    }

    #[test]
    fn colors_a_graph_end_to_end() {
        let svc = ColoringService::start(ServiceConfig::default());
        let h = svc.handle();
        let resp = h
            .color(ColorRequest::new(mesh(), Objective::Balanced))
            .unwrap();
        assert!(resp.verified);
        assert!(!resp.cache_hit);
        assert!(resp.num_colors >= 2);
        assert!(resp.model_ms > 0.0);
        assert_eq!(resp.colorer, "Gunrock/Color_IS");
        assert!(resp.metrics.kernel_launches > 0);
        svc.shutdown();
    }

    #[test]
    fn repeat_request_hits_cache_with_identical_coloring() {
        let svc = ColoringService::start(ServiceConfig::default());
        let h = svc.handle();
        let g = mesh();
        let first = h
            .color(ColorRequest::new(Arc::clone(&g), Objective::Fastest))
            .unwrap();
        let second = h.color(ColorRequest::new(g, Objective::Fastest)).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.coloring.as_slice(), second.coloring.as_slice());
        assert_eq!(
            first.coloring.as_slice().as_ptr(),
            second.coloring.as_slice().as_ptr(),
            "a hit shares the cached color array instead of copying it"
        );
        assert_eq!(first.model_ms, second.model_ms);
        let snap = svc.stats();
        assert_eq!(snap.served, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(svc.cache_len(), 1);
        svc.shutdown();
    }

    #[test]
    fn revalidated_entry_hits_under_lineage_key() {
        use crate::cache::lineage_fingerprint;
        use gc_graph::{apply_edge_delta, EdgeDelta};

        let svc = ColoringService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let h = svc.handle();
        let g = mesh();
        let base_fp = graph_fingerprint(&g);

        // Prime the cache under the base lineage fingerprint.
        let first = h
            .color(ColorRequest::new(Arc::clone(&g), Objective::Fastest).with_fingerprint(base_fp))
            .unwrap();
        assert!(!first.cache_hit);

        // Mutate the graph and repair the cached coloring on the host
        // (the net front-end does this on-device via repair_frontier;
        // the cache contract is identical).
        let delta = EdgeDelta {
            insert: vec![(0, 2)],
            delete: vec![],
        };
        let out = apply_edge_delta(&g, &delta).unwrap();
        let mut colors = first.coloring.as_slice().to_vec();
        gc_shard::repair::greedy_repair_host(&out.graph, &mut colors);
        assert!(is_proper(&out.graph, &colors).is_ok());

        let new_fp = lineage_fingerprint(base_fp, &delta);
        let old_key = CacheKey {
            graph_fp: base_fp,
            colorer: first.colorer,
            seed: 0,
            devices: 1,
            reduce_budget_ms: None,
        };
        let new_key = CacheKey {
            graph_fp: new_fp,
            ..old_key.clone()
        };
        let mut repaired = first.clone();
        repaired.coloring = gc_core::color::Coloring::new(colors);
        repaired.num_colors = repaired.coloring.num_colors();
        let carried = h.revalidate_cached(&old_key, new_key, repaired);
        assert!(carried, "the base entry was cached and must be detected");

        // A request for the mutated graph under the lineage fingerprint
        // is now a cache hit — the mutation did not cost a recolor.
        let second = h
            .color(
                ColorRequest::new(Arc::new(out.graph), Objective::Fastest).with_fingerprint(new_fp),
            )
            .unwrap();
        assert!(second.cache_hit, "revalidated entry must hit");
        assert_eq!(svc.stats().revalidated, 1);
        svc.shutdown();
    }

    #[test]
    fn revalidation_moves_the_entry_to_the_new_key() {
        use crate::cache::lineage_fingerprint;
        use gc_graph::EdgeDelta;

        let svc = ColoringService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let h = svc.handle();
        let g = mesh();
        let base_fp = graph_fingerprint(&g);
        let request =
            || ColorRequest::new(Arc::clone(&g), Objective::Fastest).with_fingerprint(base_fp);
        let first = h.color(request()).unwrap();
        assert_eq!(svc.cache_len(), 1);

        let old_key = CacheKey {
            graph_fp: base_fp,
            colorer: first.colorer,
            seed: 0,
            devices: 1,
            reduce_budget_ms: None,
        };
        let delta = EdgeDelta {
            insert: vec![(0, 2)],
            delete: vec![],
        };
        let new_key = CacheKey {
            graph_fp: lineage_fingerprint(base_fp, &delta),
            ..old_key.clone()
        };
        assert!(h.revalidate_cached(&old_key, new_key, first.clone()));
        assert_eq!(svc.cache_len(), 1, "the entry moved; it was not copied");
        assert_eq!(svc.stats().revalidated, 1);

        // The superseded version's key no longer hits: its next request
        // recolors and verifies afresh.
        let again = h.color(request()).unwrap();
        assert!(!again.cache_hit, "the old key must miss after the move");
        assert!(again.verified);
        svc.shutdown();
    }

    #[test]
    fn min_colors_runs_naumov_cc_and_post_pass() {
        let svc = ColoringService::start(ServiceConfig::default());
        let h = svc.handle();
        let g = mesh();
        let resp = h
            .color(ColorRequest::new(
                Arc::clone(&g),
                Objective::MinColors { budget_ms: 50 },
            ))
            .unwrap();
        assert!(resp.verified);
        assert_eq!(resp.colorer, "Naumov/Color_CC");
        assert!(is_proper(&g, resp.coloring.as_slice()).is_ok());
        // The post-pass ran and reported its before/after story: CC burns
        // colors, and iterated greedy takes most of them back.
        assert!(resp.colors_before > resp.colors_after);
        assert_eq!(resp.colors_after, resp.num_colors);
        assert!(resp.reduction_passes >= 1);
        assert!(resp.num_colors <= 6, "got {} colors", resp.num_colors);
        svc.shutdown();
    }

    #[test]
    fn min_colors_zero_budget_skips_the_post_pass() {
        let svc = ColoringService::start(ServiceConfig::default());
        let h = svc.handle();
        let resp = h
            .color(ColorRequest::new(
                mesh(),
                Objective::MinColors { budget_ms: 0 },
            ))
            .unwrap();
        assert_eq!(resp.reduction_passes, 0);
        assert_eq!(resp.colors_before, resp.colors_after);
        assert_eq!(resp.colors_after, resp.num_colors);
        svc.shutdown();
    }

    #[test]
    fn min_colors_reuses_cached_base_and_keeps_base_entry_unreduced() {
        let svc = ColoringService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let h = svc.handle();
        let g = mesh();
        // Prime the base entry through the explicit objective.
        let base = h
            .color(ColorRequest::new(
                Arc::clone(&g),
                Objective::Explicit("Naumov/Color_CC".into()),
            ))
            .unwrap();
        assert!(!base.cache_hit);
        assert_eq!(svc.cache_len(), 1);

        // MinColors misses its own key but seeds the post-pass from the
        // cached base run: the cache gains only the reduced entry.
        let reduced = h
            .color(ColorRequest::new(
                Arc::clone(&g),
                Objective::MinColors { budget_ms: 50 },
            ))
            .unwrap();
        assert!(!reduced.cache_hit);
        assert_eq!(reduced.colors_before, base.num_colors);
        assert!(reduced.num_colors <= base.num_colors);
        assert_eq!(svc.cache_len(), 2);

        // The base entry stayed bit-identical: an Explicit request hits
        // it and returns the unreduced coloring.
        let again = h
            .color(ColorRequest::new(
                Arc::clone(&g),
                Objective::Explicit("Naumov/Color_CC".into()),
            ))
            .unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.coloring.as_slice(), base.coloring.as_slice());
        assert_eq!(again.reduction_passes, 0);

        // And the MinColors repeat hits the budget-tagged entry.
        let hit = h
            .color(ColorRequest::new(g, Objective::MinColors { budget_ms: 50 }))
            .unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.coloring.as_slice(), reduced.coloring.as_slice());
        svc.shutdown();
    }

    #[test]
    fn min_colors_fresh_run_primes_the_base_entry() {
        let svc = ColoringService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let h = svc.handle();
        let g = mesh();
        h.color(ColorRequest::new(
            Arc::clone(&g),
            Objective::MinColors { budget_ms: 50 },
        ))
        .unwrap();
        // One reduced entry + one primed base entry.
        assert_eq!(svc.cache_len(), 2);
        // A follow-up Explicit request for the base colorer is a hit.
        let base = h
            .color(ColorRequest::new(
                g,
                Objective::Explicit("Naumov/Color_CC".into()),
            ))
            .unwrap();
        assert!(base.cache_hit);
        assert_eq!(base.reduction_passes, 0);
        svc.shutdown();
    }

    #[test]
    fn fastest_run_primes_the_min_colors_base_entry() {
        let tracer = gc_telemetry::Tracer::new();
        let svc = ColoringService::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            }
            .with_tracer(tracer.clone()),
        );
        let h = svc.handle();
        let g = mesh();
        let fast = h
            .color(ColorRequest::new(Arc::clone(&g), Objective::Fastest))
            .unwrap();
        assert_eq!(fast.colorer, "Naumov/Color_CC");
        assert_eq!(svc.cache_len(), 1);

        // Same seed, same base colorer: MinColors reduces the cached
        // Fastest coloring instead of recoloring, and adds only its own
        // budget-tagged entry.
        let reduced = h
            .color(ColorRequest::new(g, Objective::MinColors { budget_ms: 50 }))
            .unwrap();
        assert!(!reduced.cache_hit);
        assert_eq!(reduced.colorer, "Naumov/Color_CC");
        assert_eq!(reduced.colors_before, fast.num_colors);
        assert!(reduced.num_colors < fast.num_colors);
        assert_eq!(svc.cache_len(), 2);
        svc.shutdown();

        let records = tracer.records();
        let count = |name: &str| records.iter().filter(|r| r.name == name).count();
        assert_eq!(count("cache_hit_base"), 1);
        assert_eq!(count("color"), 1, "only the Fastest request ran a colorer");
    }

    #[test]
    fn min_colors_tiny_graph_uses_cpu_greedy() {
        let svc = ColoringService::start(ServiceConfig::default());
        let h = svc.handle();
        let g = Arc::new(cycle(64));
        let resp = h
            .color(ColorRequest::new(
                Arc::clone(&g),
                Objective::MinColors { budget_ms: 10 },
            ))
            .unwrap();
        assert_eq!(resp.colorer, "CPU/Color_Greedy");
        assert_eq!(resp.num_colors, 2);
        assert!(is_proper(&g, resp.coloring.as_slice()).is_ok());
        svc.shutdown();
    }

    #[test]
    fn zero_deadline_requests_are_shed() {
        let svc = ColoringService::start(ServiceConfig::default());
        let h = svc.handle();
        let err = h
            .color(ColorRequest::new(mesh(), Objective::Fastest).with_deadline(Duration::ZERO))
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::DeadlineExceeded { .. }),
            "{err}"
        );
        assert_eq!(svc.stats().shed, 1);
        svc.shutdown();
    }

    #[test]
    fn unknown_explicit_colorer_fails_cleanly() {
        let svc = ColoringService::start(ServiceConfig::default());
        let h = svc.handle();
        let err = h
            .color(ColorRequest::new(
                Arc::new(cycle(16)),
                Objective::Explicit("NoSuch/Colorer".into()),
            ))
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownColorer("NoSuch/Colorer".into()));
        assert_eq!(svc.stats().failed, 1);
        svc.shutdown();
    }

    #[test]
    fn try_submit_rejects_when_queue_full() {
        // One worker, capacity-1 queue: park the worker on a slow job,
        // fill the queue, then the next try_submit must bounce.
        let svc = ColoringService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let h = svc.handle();
        let g = mesh();
        let mut tickets = Vec::new();
        let mut rejected = 0;
        // Keep pushing until the queue bounces one; the worker can drain
        // at most one job between pushes, so 16 attempts are plenty.
        for i in 0..16 {
            match h
                .try_submit(ColorRequest::new(Arc::clone(&g), Objective::FewestColors).with_seed(i))
            {
                Ok(t) => tickets.push(t),
                Err((_, ServiceError::QueueFull { capacity })) => {
                    assert_eq!(capacity, 1);
                    rejected += 1;
                    break;
                }
                Err((_, e)) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected > 0, "queue never filled");
        assert_eq!(svc.stats().rejected, 1);
        for t in tickets {
            t.recv().unwrap();
        }
        svc.shutdown();
    }

    #[test]
    fn multi_device_config_shards_gpu_requests() {
        let svc = ColoringService::start(ServiceConfig::default().devices(4));
        let h = svc.handle();
        let g = mesh();
        let resp = h
            .color(ColorRequest::new(Arc::clone(&g), Objective::Balanced))
            .unwrap();
        assert!(resp.verified);
        assert_eq!(resp.devices, 4);
        assert!(
            resp.halo_bytes > 0,
            "a 4-way mesh split must exchange halo data"
        );
        assert!(
            resp.halo_bytes_delta > 0 && resp.halo_bytes_delta < resp.halo_bytes,
            "delta exchange ({}) must move less than full replication ({})",
            resp.halo_bytes_delta,
            resp.halo_bytes
        );
        assert!((0.0..=1.0).contains(&resp.overlap_ratio));
        assert!(is_proper(&g, resp.coloring.as_slice()).is_ok());
        // The shard telemetry also lands in the service stats; its halo
        // rounds are the summed conflict rounds.
        let snap = svc.stats();
        assert_eq!(snap.sharded, 1);
        assert_eq!(snap.halo_rounds, u64::from(resp.conflict_rounds));
        assert_eq!(snap.changed_boundary, resp.changed_boundary);
        assert_eq!(snap.halo_bytes_delta, resp.halo_bytes_delta);
        // The same request is a cache hit and carries the same sharding
        // metadata back.
        let again = h.color(ColorRequest::new(g, Objective::Balanced)).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.devices, 4);
        assert_eq!(again.coloring.as_slice(), resp.coloring.as_slice());
        svc.shutdown();
    }

    #[test]
    fn sharded_requests_on_one_graph_match_direct_runs() {
        // One worker, so the second request reuses the first one's
        // partition; each must still equal a fresh `run_sharded`.
        let svc = ColoringService::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            }
            .devices(2),
        );
        let h = svc.handle();
        let g = mesh();
        let cfg = gc_shard::ShardedConfig {
            verify: false,
            ..gc_shard::ShardedConfig::new(2)
        };
        for seed in [5u64, 6] {
            let resp = h
                .color(ColorRequest::new(Arc::clone(&g), Objective::Balanced).with_seed(seed))
                .unwrap();
            assert!(!resp.cache_hit);
            let colorer = gc_core::runner::colorer_by_name(resp.colorer).unwrap();
            let direct = gc_shard::run_sharded(&colorer, &g, seed, &cfg);
            assert_eq!(resp.coloring, direct.result.coloring, "seed {seed}");
            assert_eq!(resp.conflict_rounds, direct.conflict_rounds, "seed {seed}");
            assert_eq!(
                resp.halo_bytes_delta, direct.halo_bytes_delta,
                "seed {seed}"
            );
            assert_eq!(resp.model_ms, direct.result.model_ms, "seed {seed}");
        }
        svc.shutdown();
    }

    #[test]
    fn cpu_colorers_ignore_the_device_count() {
        let svc = ColoringService::start(ServiceConfig::default().devices(4));
        let h = svc.handle();
        let resp = h
            .color(ColorRequest::new(
                mesh(),
                Objective::Explicit("CPU/Color_Greedy".into()),
            ))
            .unwrap();
        assert_eq!(resp.devices, 1, "CPU colorers have no devices to shard");
        assert_eq!(resp.halo_bytes, 0);
        svc.shutdown();
    }

    #[test]
    fn workers_reuse_pooled_buffers_across_requests() {
        let before = gc_vgpu::pool::stats();
        let svc = ColoringService::start(ServiceConfig {
            workers: 1,
            cache_capacity: 0, // force the second request to really run
            ..ServiceConfig::default()
        });
        let h = svc.handle();
        let g = mesh();
        h.color(ColorRequest::new(Arc::clone(&g), Objective::Fastest))
            .unwrap();
        // Same shape, different seed: the colorer re-allocates the same
        // buffer sizes, which must now come out of the worker's pool.
        h.color(ColorRequest::new(g, Objective::Fastest).with_seed(1))
            .unwrap();
        svc.shutdown();
        let after = gc_vgpu::pool::stats();
        assert!(
            after.hits > before.hits,
            "second request should reuse pooled buffers ({} -> {})",
            before.hits,
            after.hits
        );
    }

    #[test]
    fn traced_service_records_request_lifecycle_spans() {
        let tracer = gc_telemetry::Tracer::new();
        let metrics = gc_telemetry::MetricsRegistry::new();
        let svc = ColoringService::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            }
            .with_tracer(tracer.clone())
            .with_metrics(metrics.clone()),
        );
        let h = svc.handle();
        let g = mesh();
        let g_vertices = g.num_vertices();
        h.color(ColorRequest::new(Arc::clone(&g), Objective::Fastest))
            .unwrap();
        // Same (graph, seed, colorer): a cache hit.
        h.color(ColorRequest::new(g, Objective::Fastest)).unwrap();
        svc.shutdown();

        let records = tracer.records();
        let request = records
            .iter()
            .find(|r| {
                r.name == "request" && r.attrs.iter().any(|(k, v)| k == "outcome" && v == "served")
            })
            .expect("served request span");
        // The lifecycle stages hang off the request span.
        for child in [
            "queue_wait",
            "policy_decide",
            "color",
            "verify",
            "cache_insert",
        ] {
            assert!(
                records
                    .iter()
                    .any(|r| r.name == child && r.parent == Some(request.id)),
                "missing {child} under request {}",
                request.id
            );
        }
        // The policy span records the features it decided on.
        let decide = records
            .iter()
            .find(|r| r.name == "policy_decide" && r.parent == Some(request.id))
            .unwrap();
        let attr = |k: &str| {
            decide
                .attrs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("policy_decide has no {k}"))
        };
        assert_eq!(attr("vertices"), g_vertices.to_string());
        assert_eq!(attr("colorer"), "Naumov/Color_CC");
        let avg: f64 = attr("avg_degree").parse().unwrap();
        assert!((3.0..4.0).contains(&avg), "avg_degree {avg}");
        let cv: f64 = attr("degree_cv").parse().unwrap();
        assert!((0.0..0.2).contains(&cv), "degree_cv {cv}");
        // The queue-wait child is contained in the backdated request span.
        let qw = records
            .iter()
            .find(|r| r.name == "queue_wait" && r.parent == Some(request.id))
            .unwrap();
        assert!(qw.wall_start_us >= request.wall_start_us);
        // The colorer's iteration spans nest under its color span, and
        // kernel events under those — one chain from request to kernel.
        let color = records
            .iter()
            .find(|r| r.name == "color" && r.parent == Some(request.id))
            .unwrap();
        let iter = records
            .iter()
            .find(|r| r.name == "iteration" && r.parent == Some(color.id))
            .expect("iteration span under color");
        assert!(
            records.iter().any(|r| r.parent == Some(iter.id)),
            "no kernel events under iteration"
        );
        // The second request shows up as a cache-hit marker.
        assert!(records
            .iter()
            .any(|r| r.name == "cache_hit" && r.kind == gc_telemetry::EventKind::Instant));
        // Worker lanes carry the thread name.
        assert!(tracer
            .lane_names()
            .iter()
            .any(|(_, n)| n == "gc-service-worker-0"));
        // The registry mirrored the lifecycle.
        assert_eq!(metrics.counter("gc_service_requests_served_total").get(), 2);
        assert_eq!(metrics.counter("gc_service_cache_hits_total").get(), 1);
        assert_eq!(metrics.gauge("gc_service_queued").get(), 0);
        assert_eq!(metrics.gauge("gc_service_in_flight").get(), 0);
        let hists = metrics.histograms();
        assert!(hists
            .iter()
            .any(|((name, labels), h)| name == "gc_service_request_model_ms"
                && labels.iter().any(|(k, _)| k == "colorer")
                && h.samples == 1));
    }

    #[test]
    fn untraced_service_stays_silent() {
        let tracer = gc_telemetry::Tracer::new();
        let svc = ColoringService::start(ServiceConfig::default());
        let h = svc.handle();
        h.color(ColorRequest::new(mesh(), Objective::Fastest))
            .unwrap();
        svc.shutdown();
        assert!(tracer.records().is_empty());
    }

    #[test]
    fn shutdown_joins_workers_and_drains_queue() {
        let svc = ColoringService::start(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let h = svc.handle();
        let g = mesh();
        let tickets: Vec<_> = (0..6)
            .map(|i| h.submit(ColorRequest::new(Arc::clone(&g), Objective::Fastest).with_seed(i)))
            .collect();
        svc.shutdown();
        // Every already-queued job was still answered.
        for t in tickets {
            t.recv().unwrap();
        }
    }
}
