//! The gc-net server: a TCP front-end over [`gc_service::ColoringService`]
//! with version-tracked mutable graphs and incremental recoloring.
//!
//! One accept thread hands each connection to its own thread; requests
//! on a connection are handled strictly in order (the protocol has no
//! frame ids to match concurrent replies). Graphs are tracked in a
//! registry keyed by client-chosen `graph_id`; each entry carries the
//! current CSR, a monotonically increasing version, the version-lineage
//! fingerprint the result cache is keyed on, and the latest stored
//! coloring.
//!
//! The interesting verb is `MutateEdges`: instead of invalidating the
//! stored coloring, the server applies the edge delta on the host,
//! seeds a compacted frontier with the endpoints of the edges that
//! actually changed, and runs `gc_shard`'s speculate-recolor loop
//! ([`gc_shard::repair_frontier`]) on the device — touching only the
//! frontier and whatever conflicts cascade from it, not all `n`
//! vertices. The repaired coloring is re-verified — at the touched
//! vertices after a clean repair ([`gc_core::verify::is_proper_at`]),
//! in full after the host fallback — and moved in the service's result
//! cache to the new lineage fingerprint
//! ([`gc_service::ServiceHandle::revalidate_cached`]), so the next
//! `Color` for the mutated graph is a cache hit.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gc_core::verify::{is_proper, is_proper_at};
use gc_graph::{apply_edge_delta, Csr};
use gc_service::{
    lineage_fingerprint, CacheKey, ColorRequest, ColorResponse, ColoringService, Objective,
    ServiceConfig, ServiceError, ServiceHandle,
};
use gc_telemetry::{Counter, Histogram, MetricsRegistry};
use gc_vgpu::Device;

use crate::wire::*;

/// Rounds the incremental repair loop may take before falling back to
/// the deterministic host pass (mirrors `gc_shard`'s conflict-round cap).
const MAX_REPAIR_ROUNDS: u32 = 64;

/// Server tuning. The embedded [`ServiceConfig`] controls the worker
/// pool, cache, and telemetry; tracer and metrics are shared by the
/// network layer (frame and per-verb counters, request spans). Without
/// a registry the server makes one, so it and its service always count
/// into the same place.
#[derive(Clone, Debug, Default)]
pub struct NetServerConfig {
    pub service: ServiceConfig,
}

/// One tracked graph.
struct GraphEntry {
    graph: Arc<Csr>,
    /// Bumped by every effective `MutateEdges`.
    version: u64,
    /// Cache-key fingerprint of the current version: the structural
    /// fingerprint at submit, advanced by [`lineage_fingerprint`] on
    /// each mutation.
    fingerprint: u64,
    /// Latest coloring of the current version, with the cache key it
    /// was stored under.
    stored: Option<Stored>,
}

struct Stored {
    key: CacheKey,
    response: ColorResponse,
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    handle: ServiceHandle,
    local_addr: SocketAddr,
    graphs: Mutex<HashMap<u64, Arc<Mutex<GraphEntry>>>>,
    stopping: AtomicBool,
    tracer: Option<gc_telemetry::Tracer>,
    metrics: NetMetrics,
}

/// The server's handles into the registry its service counts into.
/// Frame counters are resolved at start; a verb's or error code's
/// handles on its first frame, so a dump lists only the verbs and
/// codes seen, and no later frame takes the registry's intern lock.
struct NetMetrics {
    registry: MetricsRegistry,
    frames_ok: Counter,
    frames_bad: Counter,
    /// `gc_net_requests_total` and `gc_net_request_ms`, by verb byte.
    verbs: [OnceLock<(Counter, Histogram)>; 256],
    /// `gc_net_errors_total`, by error code (`Internal` is the last).
    errors: [OnceLock<Counter>; ErrCode::Internal as usize + 1],
}

impl NetMetrics {
    fn new(registry: MetricsRegistry) -> Self {
        let frames =
            |outcome| registry.counter_with("gc_net_frames_total", &[("outcome", outcome)]);
        NetMetrics {
            frames_ok: frames("ok"),
            frames_bad: frames("bad"),
            verbs: std::array::from_fn(|_| OnceLock::new()),
            errors: std::array::from_fn(|_| OnceLock::new()),
            registry,
        }
    }

    fn verb(&self, verb: u8) -> &(Counter, Histogram) {
        self.verbs[verb as usize].get_or_init(|| {
            let label = [("verb", verb_name(verb))];
            (
                self.registry.counter_with("gc_net_requests_total", &label),
                self.registry.histogram_with("gc_net_request_ms", &label),
            )
        })
    }
}

impl Shared {
    fn count_verb(&self, verb: u8) {
        self.metrics.verb(verb).0.inc();
    }

    fn count_error(&self, code: ErrCode) {
        self.metrics.errors[code as usize]
            .get_or_init(|| {
                let label = format!("{code:?}");
                self.metrics
                    .registry
                    .counter_with("gc_net_errors_total", &[("code", label.as_str())])
            })
            .inc();
    }

    fn observe_request(&self, verb: u8, wall: Duration) {
        self.metrics.verb(verb).1.observe(wall.as_secs_f64() * 1e3);
    }

    fn stats_tick(&self, tick: u32) -> StatsTick {
        let snap = self.handle.stats();
        StatsTick {
            tick,
            submitted: snap.submitted,
            served: snap.served,
            cache_hits: snap.cache_hits,
            revalidated: snap.revalidated,
            // The service's two shedding paths, already split by reason.
            shed_deadline: snap.shed,
            shed_queue_full: snap.rejected,
            failed: snap.failed,
            queued: snap.queued,
            in_flight: snap.in_flight,
            graphs: self.graphs.lock().unwrap().len() as u64,
            frames_ok: self.metrics.frames_ok.get(),
            frames_bad: self.metrics.frames_bad.get(),
            sharded: snap.sharded,
            halo_rounds: snap.halo_rounds,
            changed_boundary: snap.changed_boundary,
            halo_bytes_delta: snap.halo_bytes_delta,
            overlap_permille: (snap.avg_overlap_ratio.clamp(0.0, 1.0) * 1000.0).round() as u64,
        }
    }
}

/// A running gc-net server. Bind with [`Server::start`], then either
/// [`Server::join`] (serve until a client sends `Shutdown`) or
/// [`Server::stop`] (host-initiated shutdown). Dropping the server
/// stops it.
pub struct Server {
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    service: Option<ColoringService>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving in background threads.
    pub fn start(addr: &str, mut config: NetServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let tracer = config.service.tracer.clone();
        let metrics = NetMetrics::new(
            config
                .service
                .metrics
                .get_or_insert_with(MetricsRegistry::new)
                .clone(),
        );
        let service = ColoringService::start(config.service);
        let shared = Arc::new(Shared {
            handle: service.handle(),
            local_addr,
            graphs: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
            tracer,
            metrics,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("gc-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn gc-net accept thread");

        Ok(Server {
            local_addr,
            accept_thread: Some(accept_thread),
            shared,
            service: Some(service),
        })
    }

    /// The bound address — connect clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live service counters (same snapshot `SubscribeStats` streams).
    pub fn stats(&self) -> gc_service::StatsSnapshot {
        self.shared.handle.stats()
    }

    /// Graphs currently tracked.
    pub fn graph_count(&self) -> usize {
        self.shared.graphs.lock().unwrap().len()
    }

    /// Serves until a client sends `Shutdown`, then drains the service
    /// and returns.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(svc) = self.service.take() {
            svc.shutdown();
        }
    }

    /// Host-initiated shutdown: stops accepting, drains the service,
    /// joins the accept thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(svc) = self.service.take() {
            svc.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        // Connection threads are detached: they exit when their client
        // disconnects or when they observe the stopping flag.
        let _ = std::thread::Builder::new()
            .name("gc-net-conn".into())
            .spawn(move || connection_loop(stream, conn_shared));
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let _tracing = shared.tracer.as_ref().map(|t| t.make_current());
    gc_telemetry::instant("net_accept", &[("peer", peer)]);
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().expect("clone TCP stream"));
    let mut writer = BufWriter::new(stream);

    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let (verb, body) = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(WireError::Closed) => return,
            Err(WireError::Io(_)) => return,
            Err(e @ WireError::Oversized { .. }) => {
                // The payload was never consumed; the stream is
                // desynchronized — report and hang up.
                shared.metrics.frames_bad.inc();
                shared.count_error(ErrCode::Malformed);
                let err = ErrorFrame::new(ErrCode::Malformed, e.to_string());
                let _ = write_frame(&mut writer, VERB_ERROR, &err.encode());
                return;
            }
            Err(e @ WireError::Malformed(_)) => {
                shared.metrics.frames_bad.inc();
                shared.count_error(ErrCode::Malformed);
                let err = ErrorFrame::new(ErrCode::Malformed, e.to_string());
                let _ = write_frame(&mut writer, VERB_ERROR, &err.encode());
                return;
            }
        };
        let started = Instant::now();
        let mut span = gc_telemetry::span("net_request");
        span.attr("verb", verb_name(verb));
        let outcome = handle_frame(verb, &body, &shared, &mut writer);
        shared.observe_request(verb, started.elapsed());
        match outcome {
            FrameOutcome::Ok => {
                shared.metrics.frames_ok.inc();
                span.attr("outcome", "ok");
            }
            FrameOutcome::Error(code) => {
                // The frame itself decoded (the stream stays in sync);
                // the request failed. Malformed bodies count as protocol
                // errors, everything else as request errors.
                if code == ErrCode::Malformed {
                    shared.metrics.frames_bad.inc();
                } else {
                    shared.metrics.frames_ok.inc();
                }
                shared.count_error(code);
                span.attr("outcome", format!("error:{code:?}"));
            }
            FrameOutcome::Hangup => {
                span.attr("outcome", "hangup");
                return;
            }
            FrameOutcome::ShutdownRequested => {
                shared.metrics.frames_ok.inc();
                span.attr("outcome", "shutdown");
                drop(span);
                shared.stopping.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(shared.local_addr);
                return;
            }
        }
    }
}

enum FrameOutcome {
    Ok,
    Error(ErrCode),
    Hangup,
    ShutdownRequested,
}

/// Decodes and dispatches one request frame, writing exactly one
/// response frame (or, for `SubscribeStats`, `ticks` frames).
fn handle_frame(
    verb: u8,
    body: &[u8],
    shared: &Arc<Shared>,
    writer: &mut BufWriter<TcpStream>,
) -> FrameOutcome {
    shared.count_verb(verb);

    macro_rules! decode {
        ($e:expr) => {{
            let _decode = gc_telemetry::span("net_decode");
            match $e {
                Ok(msg) => msg,
                Err(e) => {
                    return send_error(writer, ErrCode::Malformed, e.to_string());
                }
            }
        }};
    }

    match verb {
        VERB_SUBMIT_GRAPH => {
            let msg = decode!(SubmitGraph::decode(body));
            handle_submit_graph(msg, shared, writer)
        }
        VERB_COLOR => {
            let msg = decode!(ColorReq::decode(body));
            handle_color(msg, shared, writer)
        }
        VERB_GET_RESULT => {
            let msg = decode!(GetResult::decode(body));
            handle_get_result(msg, shared, writer)
        }
        VERB_MUTATE_EDGES => {
            let msg = decode!(MutateEdges::decode(body));
            handle_mutate(msg, shared, writer)
        }
        VERB_SUBSCRIBE_STATS => {
            let msg = decode!(SubscribeStats::decode(body));
            handle_subscribe_stats(msg, shared, writer)
        }
        VERB_SHUTDOWN => {
            if write_frame(writer, VERB_SHUTDOWN_OK, &[]).is_err() {
                return FrameOutcome::Hangup;
            }
            FrameOutcome::ShutdownRequested
        }
        other => send_error(
            writer,
            ErrCode::Malformed,
            format!("unknown verb 0x{other:02x}"),
        ),
    }
}

fn send_error(
    writer: &mut BufWriter<TcpStream>,
    code: ErrCode,
    message: impl Into<String>,
) -> FrameOutcome {
    let frame = ErrorFrame::new(code, message);
    match write_frame(writer, VERB_ERROR, &frame.encode()) {
        Ok(()) => FrameOutcome::Error(code),
        Err(_) => FrameOutcome::Hangup,
    }
}

fn respond(writer: &mut BufWriter<TcpStream>, verb: u8, body: &[u8]) -> FrameOutcome {
    let _encode = gc_telemetry::span("net_encode");
    match write_frame(writer, verb, body) {
        Ok(()) => FrameOutcome::Ok,
        Err(_) => FrameOutcome::Hangup,
    }
}

fn handle_submit_graph(
    msg: SubmitGraph,
    shared: &Arc<Shared>,
    writer: &mut BufWriter<TcpStream>,
) -> FrameOutcome {
    let graph_id = msg.graph_id;
    let graph = {
        let mut ingest = gc_telemetry::span("net_ingest");
        ingest.attr("n", msg.n);
        match msg.into_csr() {
            Ok(g) => g,
            Err(e) => return send_error(writer, ErrCode::InvalidGraph, e),
        }
    };
    let fingerprint = gc_service::graph_fingerprint(&graph);
    let entry = GraphEntry {
        graph: Arc::new(graph),
        version: 0,
        fingerprint,
        stored: None,
    };
    shared
        .graphs
        .lock()
        .unwrap()
        .insert(graph_id, Arc::new(Mutex::new(entry)));
    let ack = SubmitGraphAck {
        graph_id,
        version: 0,
        fingerprint,
    };
    respond(writer, VERB_SUBMIT_GRAPH_OK, &ack.encode())
}

fn lookup(shared: &Arc<Shared>, graph_id: u64) -> Result<Arc<Mutex<GraphEntry>>, String> {
    shared
        .graphs
        .lock()
        .unwrap()
        .get(&graph_id)
        .cloned()
        .ok_or_else(|| format!("graph {graph_id} not submitted"))
}

fn handle_color(
    msg: ColorReq,
    shared: &Arc<Shared>,
    writer: &mut BufWriter<TcpStream>,
) -> FrameOutcome {
    let entry = match lookup(shared, msg.graph_id) {
        Ok(e) => e,
        Err(m) => return send_error(writer, ErrCode::UnknownGraph, m),
    };
    // Snapshot the version under the lock, then release it: coloring
    // can take a while and must not block mutations of other graphs —
    // or even of this one (a concurrent mutation just means this
    // response's stored coloring is discarded below).
    let (graph, fingerprint, version) = {
        let e = entry.lock().unwrap();
        (Arc::clone(&e.graph), e.fingerprint, e.version)
    };
    let objective = match msg.objective {
        WireObjective::Fastest => Objective::Fastest,
        WireObjective::FewestColors => Objective::FewestColors,
        WireObjective::Balanced => Objective::Balanced,
        WireObjective::Explicit(name) => Objective::Explicit(name),
        WireObjective::MinColors { budget_ms } => Objective::MinColors { budget_ms },
    };
    let reduce_budget_ms = match &objective {
        Objective::MinColors { budget_ms } => Some(*budget_ms),
        _ => None,
    };
    let mut request = ColorRequest::new(graph, objective)
        .with_seed(msg.seed)
        .with_fingerprint(fingerprint);
    if msg.deadline_ms > 0 {
        request = request.with_deadline(Duration::from_millis(msg.deadline_ms as u64));
    }
    // `try_submit` so a saturated queue sheds instead of blocking the
    // connection thread on backpressure.
    let ticket = {
        let _admit = gc_telemetry::span("net_admit");
        match shared.handle.try_submit(request) {
            Ok(t) => t,
            Err((_, ServiceError::QueueFull { capacity })) => {
                return send_error(
                    writer,
                    ErrCode::ShedQueueFull,
                    format!("admission queue full (capacity {capacity})"),
                );
            }
            Err((_, e)) => return send_error(writer, ErrCode::Internal, e.to_string()),
        }
    };
    let response = match ticket.recv() {
        Ok(r) => r,
        Err(ServiceError::DeadlineExceeded { queued_ms }) => {
            return send_error(
                writer,
                ErrCode::ShedDeadline,
                format!("deadline exceeded after {queued_ms} ms in queue"),
            );
        }
        Err(e) => return send_error(writer, ErrCode::Internal, e.to_string()),
    };

    let summary = ColorSummary {
        graph_id: msg.graph_id,
        version,
        num_colors: response.num_colors,
        colorer: response.colorer.to_string(),
        cache_hit: response.cache_hit,
        verified: response.verified,
        model_ms: response.model_ms,
        iterations: response.iterations,
        thread_executions: if response.cache_hit {
            0
        } else {
            response.metrics.thread_executions
        },
        devices: response.devices as u32,
        colors_before: response.colors_before,
        colors_after: response.colors_after,
        reduction_passes: response.reduction_passes,
    };

    // Store the coloring for GetResult / incremental repair — but only
    // if no mutation raced past this run's version. MinColors results
    // are stored (and later revalidated) under their budget-tagged key,
    // mirroring the service cache's own keying.
    {
        let mut e = entry.lock().unwrap();
        if e.version == version {
            e.stored = Some(Stored {
                key: CacheKey {
                    graph_fp: fingerprint,
                    colorer: response.colorer,
                    seed: msg.seed,
                    devices: response.devices,
                    reduce_budget_ms,
                },
                response,
            });
        }
    }

    let body = match summary.encode() {
        Ok(b) => b,
        Err(e) => return send_error(writer, ErrCode::Internal, e.to_string()),
    };
    respond(writer, VERB_COLOR_OK, &body)
}

fn handle_get_result(
    msg: GetResult,
    shared: &Arc<Shared>,
    writer: &mut BufWriter<TcpStream>,
) -> FrameOutcome {
    let entry = match lookup(shared, msg.graph_id) {
        Ok(e) => e,
        Err(m) => return send_error(writer, ErrCode::UnknownGraph, m),
    };
    // Only a reference to the shared coloring is taken under the lock;
    // the body is encoded from it after the lock is released.
    let (version, num_colors, coloring) = {
        let e = entry.lock().unwrap();
        match &e.stored {
            Some(s) => (
                e.version,
                s.response.num_colors,
                s.response.coloring.clone(),
            ),
            None => {
                drop(e);
                return send_error(
                    writer,
                    ErrCode::NoResult,
                    format!("graph {} has no coloring yet", msg.graph_id),
                );
            }
        }
    };
    let body = ResultPayload::encode_parts(msg.graph_id, version, num_colors, coloring.as_slice());
    respond(writer, VERB_GET_RESULT_OK, &body)
}

fn handle_mutate(
    msg: MutateEdges,
    shared: &Arc<Shared>,
    writer: &mut BufWriter<TcpStream>,
) -> FrameOutcome {
    let entry = match lookup(shared, msg.graph_id) {
        Ok(e) => e,
        Err(m) => return send_error(writer, ErrCode::UnknownGraph, m),
    };
    let delta = msg.to_delta();

    // The whole mutation holds the entry lock: the delta, the repair,
    // and the version bump are one atomic step from every other verb's
    // point of view.
    let mut e = entry.lock().unwrap();
    let mut span = gc_telemetry::span("net_mutate");
    span.attr("graph_id", msg.graph_id);
    span.attr("inserts", delta.insert.len());
    span.attr("deletes", delta.delete.len());

    let outcome = match apply_edge_delta(&e.graph, &delta) {
        Ok(o) => o,
        Err(err) => {
            drop(e);
            return send_error(writer, ErrCode::InvalidDelta, err);
        }
    };
    let new_fp = lineage_fingerprint(e.fingerprint, &delta);
    let new_version = e.version + 1;
    let new_graph = Arc::new(outcome.graph);

    // Incremental repair of the stored coloring, if there is one. The
    // frontier is the compacted set of endpoints of edges that actually
    // changed; deletions never break properness and an inserted edge
    // can only conflict at its own endpoints, so this frontier
    // satisfies the `repair_frontier` contract. Conflicts that cascade
    // are picked up by the loop's later rounds.
    let mut repair_stats = (0u32, 0u32, 0u32, 0u64, 0u32, false); // frontier, rounds, recolored, executions, num_colors, revalidated
    if let Some(Stored { key, response }) = e.stored.take() {
        let mut colors = response.coloring.as_slice().to_vec();
        // A fresh device per repair: its profile covers exactly this
        // repair.
        let dev = Device::k40c();
        let repair = gc_shard::repair_frontier(
            &dev,
            &new_graph,
            &mut colors,
            &outcome.touched,
            MAX_REPAIR_ROUNDS,
        );
        let executions = dev.profile().thread_executions;
        // The stored coloring was proper on the old graph; deleting an
        // edge cannot break that, and an inserted edge has both
        // endpoints in `touched`. A clean repair recolored only scanned
        // vertices, which are touched ones, so checking the touched
        // vertices decides properness of the whole coloring. The host
        // fallback after a blown round cap sweeps the whole graph and
        // gets the full check.
        let verified = if repair.clean {
            is_proper_at(&new_graph, &colors, &outcome.touched)
        } else {
            is_proper(&new_graph, &colors)
        };
        debug_assert_eq!(
            verified.is_ok(),
            is_proper(&new_graph, &colors).is_ok(),
            "the local check must agree with the full one"
        );
        if verified.is_err() {
            // Repair failed to produce a proper coloring (cannot happen
            // under the frontier contract; defensive): drop the stored
            // result, apply the mutation, report no repair.
            e.graph = Arc::clone(&new_graph);
            e.version = new_version;
            e.fingerprint = new_fp;
            drop(e);
            return send_error(
                writer,
                ErrCode::Internal,
                "incremental repair produced an improper coloring",
            );
        }
        let mut repaired = response;
        repaired.coloring = gc_core::color::Coloring::new(colors);
        repaired.num_colors = repaired.coloring.num_colors();
        repaired.cache_hit = false;
        repaired.verified = true;
        let new_key = CacheKey {
            graph_fp: new_fp,
            ..key.clone()
        };
        // Carry the cached entry across the mutation: next Color on
        // this lineage is a cache hit instead of a recolor. The clone
        // shares the repaired color array.
        let revalidated = shared
            .handle
            .revalidate_cached(&key, new_key.clone(), repaired.clone());
        repair_stats = (
            outcome.touched.len() as u32,
            repair.rounds,
            repair.recolored,
            executions,
            repaired.num_colors,
            revalidated,
        );
        e.stored = Some(Stored {
            key: new_key,
            response: repaired,
        });
    }

    e.graph = new_graph;
    e.version = new_version;
    e.fingerprint = new_fp;
    drop(e);

    let (frontier, repair_rounds, recolored, repair_thread_executions, num_colors, revalidated) =
        repair_stats;
    span.attr("frontier", frontier);
    span.attr("repair_rounds", repair_rounds);
    span.attr("revalidated", revalidated);
    drop(span);

    let ack = MutateAck {
        graph_id: msg.graph_id,
        version: new_version,
        fingerprint: new_fp,
        inserted: outcome.inserted as u32,
        deleted: outcome.deleted as u32,
        frontier,
        repair_rounds,
        recolored,
        repair_thread_executions,
        num_colors,
        revalidated,
    };
    respond(writer, VERB_MUTATE_EDGES_OK, &ack.encode())
}

fn handle_subscribe_stats(
    msg: SubscribeStats,
    shared: &Arc<Shared>,
    writer: &mut BufWriter<TcpStream>,
) -> FrameOutcome {
    for tick in 0..msg.ticks {
        if tick > 0 {
            std::thread::sleep(Duration::from_millis(msg.interval_ms as u64));
        }
        let t = shared.stats_tick(tick);
        if write_frame(writer, VERB_STATS_TICK, &t.encode()).is_err() {
            return FrameOutcome::Hangup;
        }
    }
    let _ = writer.flush();
    FrameOutcome::Ok
}
