//! Service-wide counters and per-colorer latency histograms.
//!
//! Every count lives in one [`MetricsRegistry`]: a private one, or the
//! one [`crate::ServiceConfig::metrics`] names. [`ServiceStats`]
//! resolves its handles once, at construction, so each lifecycle hook is
//! one atomic update per fact, and [`ServiceStats::snapshot`] reads the
//! same cells a Prometheus dump of the registry exports (`gc_service_*`
//! counters and gauges plus a per-colorer `gc_service_request_model_ms`
//! histogram in model-ms, the unit the paper reports).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use gc_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

// The histogram moved to `gc-telemetry` so the bench harness and the
// trace subcommand share one bucket layout and quantile estimator;
// re-exported here so existing `gc_service::stats::LatencyHistogram`
// users keep compiling.
pub use gc_telemetry::{LatencyHistogram, LATENCY_BUCKET_EDGES_MS};

/// Per-colorer model-ms latency of actual runs, labelled `colorer`.
const MODEL_MS: &str = "gc_service_request_model_ms";

/// Point-in-time snapshot of service activity, taken with
/// [`ServiceStats::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct StatsSnapshot {
    pub submitted: u64,
    /// Requests answered with a coloring (cache hits included).
    pub served: u64,
    pub cache_hits: u64,
    /// Cache entries carried across a graph mutation by incremental
    /// revalidation (repair + re-key under the new lineage fingerprint)
    /// instead of being dropped.
    pub revalidated: u64,
    /// Requests dropped at dequeue because their deadline had passed.
    pub shed: u64,
    /// `try_submit` rejections from a full queue.
    pub rejected: u64,
    /// Requests that failed (unknown colorer, improper coloring, ...).
    pub failed: u64,
    /// Requests admitted to the queue but not yet dequeued by a worker.
    pub queued: u64,
    /// Requests dequeued and currently running on a worker.
    pub in_flight: u64,
    /// Requests currently admitted but not yet answered — always
    /// `queued + in_flight`, kept for snapshot compatibility.
    pub queue_depth: u64,
    /// Requests served through the multi-device sharded path (cache
    /// misses only — a hit replays a stored coloring on no device).
    pub sharded: u64,
    /// Halo-exchange (conflict) rounds summed over all sharded requests.
    pub halo_rounds: u64,
    /// Boundary vertices recolored during conflict resolution, summed
    /// over all rounds of all sharded requests.
    pub changed_boundary: u64,
    /// Device-to-device bytes the delta halo exchange actually moved,
    /// summed over all sharded requests.
    pub halo_bytes_delta: u64,
    /// Mean fraction of halo-transfer cycles hidden behind compute,
    /// averaged over sharded requests (0.0 when none ran).
    pub avg_overlap_ratio: f64,
    /// Per-colorer model-ms latency of actual runs (cache hits excluded —
    /// a hit costs no model time).
    pub latency_by_colorer: BTreeMap<String, LatencyHistogram>,
}

impl StatsSnapshot {
    pub fn cache_hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.served as f64
        }
    }
}

/// Shared, thread-safe counters. One instance per service, shared by all
/// workers and by every handle.
pub struct ServiceStats {
    registry: MetricsRegistry,
    submitted: Counter,
    served: Counter,
    cache_hits: Counter,
    revalidated: Counter,
    shed: Counter,
    rejected: Counter,
    failed: Counter,
    shed_deadline: Counter,
    shed_queue_full: Counter,
    /// Admitted, not yet dequeued.
    queued: Gauge,
    /// Dequeued, currently running on a worker.
    in_flight: Gauge,
    sharded: Counter,
    halo_rounds: Counter,
    changed_boundary: Counter,
    halo_bytes_full: Counter,
    halo_bytes_delta: Counter,
    /// Interned by the first sharded request, so a single-device
    /// service exports no empty overlap histogram.
    overlap_ratio: OnceLock<Histogram>,
}

impl Default for ServiceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStats {
    /// Stats counted into a registry of their own.
    pub fn new() -> Self {
        Self::with_registry(MetricsRegistry::new())
    }

    /// Stats counted into `registry`.
    pub fn with_registry(registry: MetricsRegistry) -> Self {
        ServiceStats {
            submitted: registry.counter("gc_service_requests_submitted_total"),
            served: registry.counter("gc_service_requests_served_total"),
            cache_hits: registry.counter("gc_service_cache_hits_total"),
            revalidated: registry.counter("gc_service_cache_revalidated_total"),
            shed: registry.counter("gc_service_requests_shed_total"),
            rejected: registry.counter("gc_service_requests_rejected_total"),
            failed: registry.counter("gc_service_requests_failed_total"),
            // Both load-shedding paths under one name, split by reason,
            // so dashboards can tell "clients asked for too little time"
            // (deadline) from "the service is saturated" (queue_full).
            shed_deadline: registry
                .counter_with("gc_service_shed_total", &[("reason", "deadline")]),
            shed_queue_full: registry
                .counter_with("gc_service_shed_total", &[("reason", "queue_full")]),
            queued: registry.gauge("gc_service_queued"),
            in_flight: registry.gauge("gc_service_in_flight"),
            sharded: registry.counter("gc_service_shard_requests_total"),
            halo_rounds: registry.counter("gc_service_shard_halo_rounds_total"),
            changed_boundary: registry.counter("gc_service_shard_changed_boundary_total"),
            // Both exchange volumes under one name, split by kind, so a
            // dashboard quotient shows what the delta exchange saves.
            halo_bytes_full: registry
                .counter_with("gc_service_shard_halo_bytes_total", &[("kind", "full")]),
            halo_bytes_delta: registry
                .counter_with("gc_service_shard_halo_bytes_total", &[("kind", "delta")]),
            overlap_ratio: OnceLock::new(),
            registry,
        }
    }

    pub fn on_submitted(&self) {
        self.submitted.inc();
        self.queued.add(1);
    }

    pub fn on_rejected(&self) {
        self.rejected.inc();
        self.shed_queue_full.inc();
    }

    /// A cached result survived a graph mutation via incremental
    /// revalidation instead of being invalidated.
    pub fn on_revalidated(&self) {
        self.revalidated.inc();
    }

    /// A worker pulled the request off the queue and owns it now.
    pub fn on_dequeued(&self) {
        self.queued.sub(1);
        self.in_flight.add(1);
    }

    pub fn on_shed(&self) {
        self.shed.inc();
        self.shed_deadline.inc();
        self.in_flight.sub(1);
    }

    pub fn on_failed(&self) {
        self.failed.inc();
        self.in_flight.sub(1);
    }

    /// Failure before any worker dequeued the request (the service shut
    /// down under a submitted job) — decrements `queued`, not
    /// `in_flight`.
    pub fn on_failed_at_submit(&self) {
        self.failed.inc();
        self.queued.sub(1);
    }

    /// A cache miss interns its colorer's histogram, the one registry
    /// lookup on a hook.
    pub fn on_served(&self, colorer: &str, model_ms: f64, cache_hit: bool) {
        self.served.inc();
        self.in_flight.sub(1);
        if cache_hit {
            self.cache_hits.inc();
        } else {
            self.registry
                .histogram_with(MODEL_MS, &[("colorer", colorer)])
                .observe(model_ms);
        }
    }

    /// A cache-miss request went through the multi-device sharded path;
    /// records its halo-exchange telemetry (conflict rounds, recolored
    /// boundary vertices, full vs actually-moved bytes, overlap ratio).
    pub fn on_sharded(
        &self,
        conflict_rounds: u32,
        changed_boundary: u64,
        halo_bytes: u64,
        halo_bytes_delta: u64,
        overlap_ratio: f64,
    ) {
        self.sharded.inc();
        self.halo_rounds.add(conflict_rounds.into());
        self.changed_boundary.add(changed_boundary);
        self.halo_bytes_full.add(halo_bytes);
        self.halo_bytes_delta.add(halo_bytes_delta);
        self.overlap_ratio
            .get_or_init(|| self.registry.histogram("gc_service_shard_overlap_ratio"))
            .observe(overlap_ratio);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        let queued = self.queued.get().max(0) as u64;
        let in_flight = self.in_flight.get().max(0) as u64;
        StatsSnapshot {
            submitted: self.submitted.get(),
            served: self.served.get(),
            cache_hits: self.cache_hits.get(),
            revalidated: self.revalidated.get(),
            shed: self.shed.get(),
            rejected: self.rejected.get(),
            failed: self.failed.get(),
            queued,
            in_flight,
            queue_depth: queued + in_flight,
            sharded: self.sharded.get(),
            halo_rounds: self.halo_rounds.get(),
            changed_boundary: self.changed_boundary.get(),
            halo_bytes_delta: self.halo_bytes_delta.get(),
            avg_overlap_ratio: self
                .overlap_ratio
                .get()
                .map_or(0.0, |h| h.snapshot().mean_ms()),
            latency_by_colorer: self
                .registry
                .histograms()
                .into_iter()
                .filter(|((name, _), _)| name == MODEL_MS)
                .filter_map(|((_, labels), h)| Some((labels.into_iter().next()?.1, h)))
                .collect(),
        }
    }
}

impl std::fmt::Debug for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = LatencyHistogram::default();
        h.record(0.005); // bucket 0 (<= 0.01)
        h.record(0.5); // bucket 4 (<= 1.0)
        h.record(1000.0); // overflow
        assert_eq!(h.samples, 3);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.counts[10], 1);
        assert!((h.mean_ms() - (0.005 + 0.5 + 1000.0) / 3.0).abs() < 1e-9);
        assert_eq!(h.max_ms, 1000.0);
        let brief = h.brief();
        assert!(brief.contains("[0.01: 1]"), "{brief}");
        assert!(brief.contains("[+inf: 1]"), "{brief}");
    }

    #[test]
    fn snapshot_reflects_lifecycle() {
        let s = ServiceStats::new();
        for _ in 0..4 {
            s.on_submitted();
        }
        s.on_dequeued();
        s.on_served("Naumov/Color_CC", 1.5, false);
        s.on_dequeued();
        s.on_served("Naumov/Color_CC", 0.0, true);
        s.on_dequeued();
        s.on_shed();
        s.on_rejected();
        let snap = s.snapshot();
        assert_eq!(snap.submitted, 4);
        assert_eq!(snap.served, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.queued, 1);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.queue_depth, 1);
        // Cache hits don't pollute the latency histogram.
        let h = &snap.latency_by_colorer["Naumov/Color_CC"];
        assert_eq!(h.samples, 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn queued_and_in_flight_track_dequeue() {
        let s = ServiceStats::new();
        s.on_submitted();
        s.on_submitted();
        let snap = s.snapshot();
        assert_eq!((snap.queued, snap.in_flight), (2, 0));
        s.on_dequeued();
        let snap = s.snapshot();
        assert_eq!((snap.queued, snap.in_flight), (1, 1));
        assert_eq!(snap.queue_depth, 2);
        s.on_served("X", 1.0, false);
        let snap = s.snapshot();
        assert_eq!((snap.queued, snap.in_flight), (1, 0));
        assert_eq!(snap.queue_depth, 1);
    }

    #[test]
    fn failed_at_submit_drains_queued_not_in_flight() {
        let s = ServiceStats::new();
        s.on_submitted();
        s.on_failed_at_submit();
        let snap = s.snapshot();
        assert_eq!(snap.failed, 1);
        assert_eq!((snap.queued, snap.in_flight), (0, 0));
    }

    #[test]
    fn sharded_telemetry_accumulates_and_mirrors() {
        let reg = MetricsRegistry::new();
        let s = ServiceStats::with_registry(reg.clone());
        s.on_sharded(2, 150, 4096, 512, 0.25);
        s.on_sharded(3, 50, 8192, 1024, 0.75);
        let snap = s.snapshot();
        assert_eq!(snap.sharded, 2);
        assert_eq!(snap.halo_rounds, 5);
        assert_eq!(snap.changed_boundary, 200);
        assert_eq!(snap.halo_bytes_delta, 1536);
        assert!((snap.avg_overlap_ratio - 0.5).abs() < 1e-9);
        let counters: BTreeMap<(String, String), u64> = reg
            .counters()
            .into_iter()
            .map(|((name, labels), v)| ((name, format!("{labels:?}")), v))
            .collect();
        let flat = |name: &str| counters[&(name.to_string(), "[]".to_string())];
        assert_eq!(flat("gc_service_shard_requests_total"), 2);
        assert_eq!(flat("gc_service_shard_halo_rounds_total"), 5);
        assert_eq!(flat("gc_service_shard_changed_boundary_total"), 200);
        let by_kind: BTreeMap<String, u64> = reg
            .counters()
            .into_iter()
            .filter(|((name, _), _)| name == "gc_service_shard_halo_bytes_total")
            .map(|((_, labels), v)| (format!("{labels:?}"), v))
            .collect();
        assert_eq!(by_kind.len(), 2, "{by_kind:?}");
        assert!(by_kind.values().any(|&v| v == 12288)); // full
        assert!(by_kind.values().any(|&v| v == 1536)); // delta
        let hists = reg.histograms();
        let overlap = hists
            .iter()
            .find(|(k, _)| k.0 == "gc_service_shard_overlap_ratio")
            .expect("overlap histogram registered");
        assert_eq!(overlap.1.samples, 2);
    }

    #[test]
    fn registry_mirror_matches_snapshot() {
        let reg = MetricsRegistry::new();
        let s = ServiceStats::with_registry(reg.clone());
        s.on_submitted();
        s.on_dequeued();
        s.on_served("Gunrock/Color_IS", 2.5, false);
        s.on_rejected();
        let counters: BTreeMap<String, u64> = reg
            .counters()
            .into_iter()
            .map(|((name, _), v)| (name, v))
            .collect();
        assert_eq!(counters["gc_service_requests_submitted_total"], 1);
        assert_eq!(counters["gc_service_requests_served_total"], 1);
        assert_eq!(counters["gc_service_requests_rejected_total"], 1);
        assert_eq!(reg.gauge("gc_service_queued").get(), 0);
        assert_eq!(reg.gauge("gc_service_in_flight").get(), 0);
        let hists = reg.histograms();
        let (key, h) = &hists[0];
        assert_eq!(key.0, "gc_service_request_model_ms");
        assert_eq!(key.1, vec![("colorer".into(), "Gunrock/Color_IS".into())]);
        assert_eq!(h.samples, 1);
    }
}
