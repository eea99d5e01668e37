//! The traced run: per-layer metrics from spans the benchmark records
//! around calls into each layer's public functions.
//!
//! A traced op first runs over TCP exactly as in the untraced run; it
//! becomes an `op` span with its Color round trips as children. The
//! benchmark then replays what the server did for that op in-process,
//! through the same public functions (`SubmitGraph::decode`,
//! `graph_fingerprint`, `features`/`choose`, `Colorer::run`,
//! `reduce_colors`, `is_proper`, `apply_edge_delta`, `repair_frontier`,
//! `Partition::with_strategy`, `run_sharded`, `ServiceHandle::color`),
//! each under its own span inside a `replay` span of the same op. Spans
//! live in memory and are written out when the run ends.
//!
//! Counts (iterations, launches, rounds, bytes) come from the replayed
//! calls' results over a fixed op prefix, so they repeat exactly for a
//! seed. The replay runs between ops, never inside an op's timer, so
//! tracing slows no measured op; what it costs is the recording of each
//! span, which [`span_cost_us`] measures.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gc_core::reduce::{reduce_colors, ReduceBudget};
use gc_core::runner::Colorer;
use gc_core::verify::is_proper;
use gc_graph::{apply_edge_delta, Csr, EdgeDelta, Partition, PartitionStrategy};
use gc_net::wire::SubmitGraph;
use gc_net::{ResultPayload, WireObjective};
use gc_service::{
    choose, features, graph_fingerprint, lineage_fingerprint, CacheKey, ColorRequest,
    ColorResponse, ColoringService, Objective, ServiceConfig, ServiceHandle,
};
use gc_vgpu::{Device, ProfileReport};

use crate::metrics::{catalog_name, COLORERS};
use crate::stats::median;
use crate::workload::{Bench, OpRecord, Workload};

/// Op id of spans that belong to no op (set-up).
pub const NO_OP: u64 = u64::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<usize>,
    /// Op the span belongs to, or [`NO_OP`].
    pub op: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Server work the replay accounts for: subtracted from the op's
    /// client-observed time to give `unattributed_ms`.
    pub attributed: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span store; span ids are indices. `gc_telemetry::Tracer`
/// records through a thread-current dispatch, so installing it would
/// also switch on the colorers' and devices' own spans and kernel events;
/// this store records only the benchmark's spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        op: u64,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
        attributed: bool,
    ) -> usize {
        self.spans.push(Span {
            parent,
            op,
            name: name.into(),
            start_us: self.us(start),
            end_us: self.us(end),
            attributed,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    fn open(&mut self, name: &str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, (now, now), false)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.us(Instant::now());
    }

    /// Runs `f` under a span; returns its value and duration in ms.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        op: u64,
        parent: Option<usize>,
        attributed: bool,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let id = self.record(name, op, parent, (start, Instant::now()), attributed);
        (value, self.spans[id].ms())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP { -1 } else { s.op as i64 };
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {op}, \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"attributed\": {}}}",
                s.name, s.start_us, s.end_us, s.attributed
            )?;
        }
        out.flush()
    }
}

fn objective_of(w: &WireObjective) -> Objective {
    match w {
        WireObjective::Fastest => Objective::Fastest,
        WireObjective::FewestColors => Objective::FewestColors,
        WireObjective::Balanced => Objective::Balanced,
        WireObjective::Explicit(name) => Objective::Explicit(name.clone()),
        WireObjective::MinColors { budget_ms } => Objective::MinColors {
            budget_ms: *budget_ms,
        },
    }
}

fn slug(colorer: &str) -> &'static str {
    COLORERS
        .iter()
        .find(|(name, _)| *name == colorer)
        .map_or("other", |(_, s)| *s)
}

/// Where a replayed op's layer spans go: its op id and `replay` span.
#[derive(Clone, Copy)]
struct At {
    op: u64,
    parent: Option<usize>,
}

/// The replay's view of one graph the server stores a coloring for: its
/// lineage fingerprint and stored response.
struct Stored {
    fingerprint: u64,
    response: ColorResponse,
}

/// The in-process side of the traced run.
pub struct Replay {
    workload: Workload,
    tracer: Tracer,
    /// Answers `ServiceHandle::color` for the same requests the server
    /// got, primed the same way.
    service: ColoringService,
    handle: ServiceHandle,
    /// The device incremental repairs run on; the server keeps one per
    /// connection.
    repair_device: Device,
    stored: Vec<Stored>,
    /// Per-call counters, reported as means per call.
    counts: BTreeMap<String, (f64, u64)>,
    /// Σ colorer wall ms and Σ colorer model ms.
    wall_model: (f64, f64),
    /// In-process `ServiceHandle::color` time of each cache hit.
    hit_ms: Vec<f64>,
    /// Client-observed Color time minus in-process time, per Color.
    overhead_ms: Vec<f64>,
    hits: u64,
    replies: u64,
}

impl Replay {
    /// Starts an in-process service configured like the bench's server
    /// and primes it with the same requests. `generate_ms` is the bench's
    /// graph synthesis time, recorded as a set-up span.
    pub fn new(bench: &Bench, generate_ms: f64) -> Replay {
        let now = Instant::now();
        let generated = now
            .checked_sub(Duration::from_secs_f64(generate_ms / 1e3))
            .unwrap_or(now);
        let mut tracer = Tracer {
            epoch: generated,
            spans: Vec::new(),
        };
        tracer.record("graph.generate", NO_OP, None, (generated, now), false);

        let workload = bench.workload();
        let service = ColoringService::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            }
            .devices(workload.devices()),
        );
        let handle = service.handle();
        let mut stored = Vec::new();
        if workload.expects_hit() {
            for (id, g) in bench.graphs().iter().enumerate() {
                let id = id as u64;
                let fingerprint = graph_fingerprint(g);
                let objective = objective_of(&bench.primed_objective(id));
                let request = ColorRequest::new(Arc::clone(g), objective)
                    .with_seed(bench.prime_seed(id, id))
                    .with_fingerprint(fingerprint);
                let response = handle.color(request).expect("in-process priming succeeds");
                stored.push(Stored {
                    fingerprint,
                    response,
                });
            }
        }
        // The server's service worker pools device buffers; so does the
        // thread that replays its colorers.
        gc_vgpu::pool::enable_for_thread();
        Replay {
            workload,
            tracer,
            service,
            handle,
            repair_device: Device::k40c(),
            stored,
            counts: BTreeMap::new(),
            wall_model: (0.0, 0.0),
            hit_ms: Vec::new(),
            overhead_ms: Vec::new(),
            hits: 0,
            replies: 0,
        }
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn count(&mut self, name: &str, value: f64) {
        let e = self.counts.entry(name.to_string()).or_default();
        e.0 += value;
        e.1 += 1;
    }

    fn mean(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |&(s, n)| s / n as f64)
    }

    fn sum(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |&(s, _)| s)
    }

    /// Records `record`'s client-observed intervals, then replays the
    /// op's server-side work in-process.
    pub fn replay(&mut self, record: &OpRecord) {
        let op = record.index;
        let op_end = record.started + Duration::from_secs_f64(record.ms / 1e3);
        let root = self
            .tracer
            .record("op", op, None, (record.started, op_end), false);
        for call in &record.colors {
            let end = call.started + Duration::from_secs_f64(call.ms / 1e3);
            self.tracer
                .record("net.color_rtt", op, Some(root), (call.started, end), false);
        }
        let replay = self.tracer.open("replay", op, Some(root));
        let at = At {
            op,
            parent: Some(replay),
        };
        let g = &record.graph;

        if record.submitted {
            let body = SubmitGraph::from_csr(record.graph_id, g).encode();
            self.count("net.submit_bytes", body.len() as f64);
            let (decoded, _) = self
                .tracer
                .span("net.submit_decode", op, at.parent, true, || {
                    SubmitGraph::decode(&body).map(SubmitGraph::into_csr)
                });
            assert!(matches!(decoded, Ok(Ok(_))), "submitted graph decodes");
            self.tracer
                .span("service.fingerprint", op, at.parent, true, || {
                    graph_fingerprint(g)
                });
        }

        if let Some((before, delta)) = &record.mutation {
            self.replay_mutation(at, record, before, delta);
        }

        let hit_path = self.workload.expects_hit();
        for call in &record.colors {
            self.replies += 1;
            self.hits += call.summary.cache_hit as u64;
            let objective = objective_of(&call.objective);
            // On a hit the policy runs inside `ServiceHandle::color`,
            // whose span already accounts for it.
            let (colorer, _) = self
                .tracer
                .span("service.policy", op, at.parent, !hit_path, || {
                    choose(&features(g), &objective).expect("policy picks a colorer")
                });
            let in_process_ms = match self.workload {
                Workload::Cold => self.replay_miss(at, g, &colorer, &objective, call.seed),
                Workload::Sharded => self.replay_sharded(at, g, &colorer, &objective, call.seed),
                Workload::Warm | Workload::Mutate => {
                    let fp = self.stored[record.graph_id as usize].fingerprint;
                    let (resp, ms) = self.service_color(at, true, g, &objective, call.seed, fp);
                    assert!(resp.cache_hit, "in-process replay of a hit must hit");
                    self.hit_ms.push(ms);
                    ms
                }
            };
            self.overhead_ms.push(call.ms - in_process_ms);
        }

        if let Some(payload) = &record.payload {
            let body = payload.encode();
            self.count("net.result_bytes", body.len() as f64);
            let (decoded, _) = self
                .tracer
                .span("net.result_decode", op, at.parent, true, || {
                    ResultPayload::decode(&body)
                });
            assert!(decoded.is_ok(), "result payload decodes");
        }
        self.tracer.close(replay);
    }

    /// `ServiceHandle::color` on the in-process service; `attributed`
    /// when no finer replay spans cover the same work.
    fn service_color(
        &mut self,
        at: At,
        attributed: bool,
        g: &Arc<Csr>,
        objective: &Objective,
        seed: u64,
        fingerprint: u64,
    ) -> (ColorResponse, f64) {
        let request = ColorRequest::new(Arc::clone(g), objective.clone())
            .with_seed(seed)
            .with_fingerprint(fingerprint);
        let handle = &self.handle;
        let (resp, ms) = self
            .tracer
            .span("service.color", at.op, at.parent, attributed, || {
                handle.color(request)
            });
        (resp.expect("in-process replay succeeds"), ms)
    }

    /// A cache miss, layer by layer: colorer, verify, and for MinColors
    /// the reduction post-pass. Returns the in-process
    /// `ServiceHandle::color` time of the same request.
    fn replay_miss(
        &mut self,
        at: At,
        g: &Arc<Csr>,
        colorer: &Colorer,
        objective: &Objective,
        seed: u64,
    ) -> f64 {
        let slug = slug(colorer.name());
        let pool_before = gc_vgpu::pool::stats();
        let (result, wall_ms) =
            self.tracer
                .span(format!("core.color.{slug}"), at.op, at.parent, true, || {
                    colorer.run(g, seed)
                });
        self.count_pool(pool_before);
        self.count(&format!("core.iterations.{slug}"), result.iterations as f64);
        self.count_profile(result.profile.as_ref(), wall_ms, result.model_ms);
        let (ok, _) = self
            .tracer
            .span("service.verify", at.op, at.parent, true, || {
                is_proper(g, result.coloring.as_slice())
            });
        assert!(ok.is_ok(), "replayed colorer output is proper");

        if let Objective::MinColors { budget_ms } = objective {
            let mut colors = result.coloring.as_slice().to_vec();
            let dev = Device::k40c();
            let budget = ReduceBudget::model_ms(*budget_ms as f64);
            let (outcome, _) = self.tracer.span("core.reduce", at.op, at.parent, true, || {
                reduce_colors(&dev, g, &mut colors, budget)
            });
            self.count("core.reduce_passes", outcome.passes as f64);
            let (ok, _) = self
                .tracer
                .span("service.verify", at.op, at.parent, true, || {
                    is_proper(g, &colors)
                });
            assert!(ok.is_ok(), "reduced coloring is proper");
        }

        let fp = graph_fingerprint(g);
        let (resp, ms) = self.service_color(at, false, g, objective, seed, fp);
        assert!(!resp.cache_hit, "in-process replay of a miss must miss");
        ms
    }

    /// The sharded path: partition, `run_sharded`, verify.
    fn replay_sharded(
        &mut self,
        at: At,
        g: &Arc<Csr>,
        colorer: &Colorer,
        objective: &Objective,
        seed: u64,
    ) -> f64 {
        let devices = self.workload.devices();
        // `run_sharded` partitions internally; this span times that step
        // on its own and stays out of the attributed sum.
        self.tracer
            .span("graph.partition", at.op, at.parent, false, || {
                Partition::with_strategy(g, devices, PartitionStrategy::BfsGrown)
            });
        let cfg = gc_shard::ShardedConfig {
            verify: false,
            ..gc_shard::ShardedConfig::new(devices)
        };
        let pool_before = gc_vgpu::pool::stats();
        let (sharded, wall_ms) = self.tracer.span("shard.run", at.op, at.parent, true, || {
            gc_shard::run_sharded(colorer, g, seed, &cfg)
        });
        self.count_pool(pool_before);
        self.count("shard.conflict_rounds", sharded.conflict_rounds as f64);
        self.count("shard.halo_bytes_delta", sharded.halo_bytes_delta as f64);
        self.count("shard.overlap_ratio", sharded.overlap_ratio);
        self.count(
            "shard.max_device_thread_executions",
            sharded.max_device_thread_executions() as f64,
        );
        self.count_profile(
            sharded.result.profile.as_ref(),
            wall_ms,
            sharded.result.model_ms,
        );
        let (ok, _) = self
            .tracer
            .span("service.verify", at.op, at.parent, true, || {
                is_proper(g, sharded.result.coloring.as_slice())
            });
        assert!(ok.is_ok(), "sharded coloring is proper");

        let fp = graph_fingerprint(g);
        let (resp, ms) = self.service_color(at, false, g, objective, seed, fp);
        assert!(!resp.cache_hit, "in-process replay of a miss must miss");
        ms
    }

    /// The server's `MutateEdges` path: delta, lineage, incremental
    /// repair, verify, cache revalidation.
    fn replay_mutation(&mut self, at: At, record: &OpRecord, before: &Csr, delta: &EdgeDelta) {
        let (outcome, _) = self
            .tracer
            .span("graph.delta_apply", at.op, at.parent, true, || {
                apply_edge_delta(before, delta).expect("toggle applies")
            });
        assert_eq!(
            outcome.graph, *record.graph,
            "replayed delta matches the client copy"
        );
        let stored = &self.stored[record.graph_id as usize];
        let new_fp = lineage_fingerprint(stored.fingerprint, delta);
        let reduce_budget_ms = match record.colors[0].objective {
            WireObjective::MinColors { budget_ms } => Some(budget_ms),
            _ => None,
        };
        let old_key = CacheKey {
            graph_fp: stored.fingerprint,
            colorer: stored.response.colorer,
            seed: record.colors[0].seed,
            devices: 1,
            reduce_budget_ms,
        };
        let mut colors = stored.response.coloring.as_slice().to_vec();
        let mut repaired = stored.response.clone();

        let dev = &self.repair_device;
        let executions_before = dev.profile().thread_executions;
        let (repair, _) = self
            .tracer
            .span("shard.repair", at.op, at.parent, true, || {
                gc_shard::repair_frontier(dev, &outcome.graph, &mut colors, &outcome.touched, 64)
            });
        let executions = dev.profile().thread_executions - executions_before;
        self.count("shard.repair_rounds", repair.rounds as f64);
        self.count("shard.repair_thread_executions", executions as f64);
        let (ok, _) = self
            .tracer
            .span("service.verify", at.op, at.parent, true, || {
                is_proper(&outcome.graph, &colors)
            });
        assert!(ok.is_ok(), "repaired coloring is proper");

        repaired.coloring = gc_core::color::Coloring::new(colors);
        repaired.num_colors = repaired.coloring.num_colors();
        let new_key = CacheKey {
            graph_fp: new_fp,
            ..old_key.clone()
        };
        let handle = &self.handle;
        let to_cache = repaired.clone();
        let (revalidated, _) =
            self.tracer
                .span("service.revalidate", at.op, at.parent, true, || {
                    handle.revalidate_cached(&old_key, new_key, to_cache)
                });
        assert!(revalidated, "the replayed entry was cached");
        self.stored[record.graph_id as usize] = Stored {
            fingerprint: new_fp,
            response: repaired,
        };
    }

    fn count_pool(&mut self, before: gc_vgpu::pool::PoolStats) {
        let after = gc_vgpu::pool::stats();
        self.count("vgpu.pool_hits", (after.hits - before.hits) as f64);
        self.count("vgpu.pool_misses", (after.misses - before.misses) as f64);
    }

    fn count_profile(&mut self, profile: Option<&ProfileReport>, wall_ms: f64, model_ms: f64) {
        if let Some(p) = profile {
            self.count("vgpu.launches", p.launches as f64);
            self.count("vgpu.thread_executions", p.thread_executions as f64);
            self.count("vgpu.kernel_bytes", p.kernel_bytes as f64);
            self.count("vgpu.kernel_atomics", p.kernel_atomics as f64);
            self.count("vgpu.launch_overhead_ms", p.launch_overhead_ms);
        }
        self.wall_model.0 += wall_ms;
        self.wall_model.1 += model_ms;
    }

    /// Per-layer metrics from the spans and counts of the traced ops;
    /// `span_cost_us` is the measured cost of recording one span.
    pub fn metrics(&self, span_cost_us: f64, out: &mut BTreeMap<&'static str, f64>) {
        let span_median = |span: &str| median(&self.tracer.durations(span));
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut put = |name: &str, value: f64| {
            out.insert(catalog_name(name), value);
        };
        for (metric, span) in [
            ("net.submit_decode_ms", "net.submit_decode"),
            ("net.result_decode_ms", "net.result_decode"),
            ("service.policy_ms", "service.policy"),
            ("service.fingerprint_ms", "service.fingerprint"),
            ("service.verify_ms", "service.verify"),
            ("core.reduce_ms", "core.reduce"),
            ("graph.delta_apply_ms", "graph.delta_apply"),
            ("graph.partition_ms", "graph.partition"),
            ("graph.generate_ms", "graph.generate"),
            ("shard.run_ms", "shard.run"),
            ("shard.repair_ms", "shard.repair"),
        ] {
            put(metric, span_median(span));
        }
        for name in [
            "net.submit_bytes",
            "net.result_bytes",
            "core.reduce_passes",
            "vgpu.launches",
            "vgpu.thread_executions",
            "vgpu.kernel_bytes",
            "vgpu.kernel_atomics",
            "vgpu.launch_overhead_ms",
            "shard.conflict_rounds",
            "shard.halo_bytes_delta",
            "shard.overlap_ratio",
            "shard.max_device_thread_executions",
            "shard.repair_rounds",
            "shard.repair_thread_executions",
        ] {
            put(name, self.mean(name));
        }
        for (_, slug) in COLORERS {
            put(
                &format!("core.color_ms.{slug}"),
                span_median(&format!("core.color.{slug}")),
            );
            let iterations = format!("core.iterations.{slug}");
            put(&iterations, self.mean(&iterations));
        }
        put("net.overhead_ms", median(&self.overhead_ms));
        put("service.hit_ms", median(&self.hit_ms));
        put(
            "service.hit_ratio",
            ratio(self.hits as f64, self.replies as f64),
        );
        let (hits, misses) = (self.sum("vgpu.pool_hits"), self.sum("vgpu.pool_misses"));
        put("vgpu.pool_hit_ratio", ratio(hits, hits + misses));
        put(
            "vgpu.wall_per_model",
            ratio(self.wall_model.0, self.wall_model.1),
        );
        put("unattributed_ms", unattributed_ms(&self.tracer));
        let ops = self.tracer.durations("op");
        let op_spans = self.tracer.spans().iter().filter(|s| s.op != NO_OP).count();
        let spans_per_op = ratio(op_spans as f64, ops.len() as f64);
        put("trace.span_cost_us", span_cost_us);
        put(
            "trace.overhead_ratio",
            ratio(span_cost_us / 1e3 * spans_per_op, median(&ops)),
        );
    }

    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

/// Wall cost in microseconds of recording one span around an empty call:
/// what tracing adds to each replayed layer call. Median of five batches.
pub fn span_cost_us() -> f64 {
    const SPANS: usize = 10_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::default();
            let start = Instant::now();
            for op in 0..SPANS as u64 {
                t.span("service.verify", op, Some(0), true, || ());
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / SPANS as f64;
            std::hint::black_box(t.spans().len());
            us
        })
        .collect();
    median(&batches)
}

/// Median over ops of the op's client-observed time minus the attributed
/// layer spans replayed for it.
pub fn unattributed_ms(tracer: &Tracer) -> f64 {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tracer.spans().iter().filter(|s| s.op != NO_OP) {
        if s.name == "op" {
            *per_op.entry(s.op).or_default() += s.ms();
        } else if s.attributed {
            *per_op.entry(s.op).or_default() -= s.ms();
        }
    }
    median(&per_op.into_values().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_time_is_op_time_minus_attributed_spans() {
        let mut t = Tracer::default();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        for op in 0..3 {
            let root = t.record("op", op, None, (at(0), at(10)), false);
            t.record("service.color", op, Some(root), (at(20), at(26)), true);
            t.record("graph.partition", op, Some(root), (at(26), at(28)), false);
        }
        t.record("graph.generate", NO_OP, None, (at(0), at(50)), false);
        assert!((unattributed_ms(&t) - 4.0).abs() < 1e-6);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 10);
        assert!(text.lines().last().unwrap().contains("\"op\": -1"));
    }
}
