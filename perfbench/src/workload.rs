//! The four closed-loop workloads, driven over TCP against an in-process
//! `gc_net::Server`.
//!
//! One client connection issues every request and waits for each reply
//! (the protocol has no frame ids, so a connection is strictly ordered),
//! and the service runs one worker: exactly one request is in flight at a
//! time, which keeps client, server and shard threads within two cores.
//! Every input is generated here from the workload seed; the server only
//! sees uploaded graphs and requests. Graph ids come from a fixed pool of
//! [`POOL`] because the protocol has no delete verb: the server keeps
//! every graph it was sent, so fresh ids would grow its memory with run
//! length.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gc_core::verify::is_proper;
use gc_graph::{apply_edge_delta, Csr, EdgeDelta};
use gc_net::{
    ColorSummary, NetClient, NetError, NetServerConfig, ResultPayload, Server, WireObjective,
};
use gc_service::ServiceConfig;

/// Graph ids each workload cycles through.
pub const POOL: usize = 4;
/// Seeded edges a `cold` session adds to its pool graph, so that every
/// uploaded graph is structurally new.
pub const PERTURB_EDGES: usize = 8;
/// Long-range edges per graph that `mutate` toggles.
pub const TOGGLE_POOL: usize = 8;
/// Objectives of a `cold` session, in request order; `warm` and `mutate`
/// prime graph `k` with the `k`-th.
pub const OBJECTIVES: [WireObjective; 4] = [
    WireObjective::Fastest,
    WireObjective::Balanced,
    WireObjective::FewestColors,
    WireObjective::MinColors { budget_ms: 1 },
];
/// Longest a single reply may take before the op fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Dataset stand-in scale of each workload's graphs.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `ecology2` scale of `cold`.
    pub cold: f64,
    /// `ecology2` scale of `warm`.
    pub warm: f64,
    /// `ecology2` scale of `mutate`.
    pub mutate: f64,
    /// `G3_circuit` scale of `sharded`.
    pub sharded: f64,
}

/// The measured configuration. `cold` (29,241-vertex meshes) and
/// `sharded` (64,000-vertex circuits) color whole graphs per op; at these
/// sizes a run completes a few hundred ops, so p90 rests on dozens of
/// samples beyond it. `warm` reads 292,681-vertex meshes: on smaller ones
/// the loopback round trips dominate an op, and their cost doubled and
/// halved with host load for minutes at a time. `mutate` toggles edges
/// of 97,336-vertex meshes.
pub const FULL: Sizes = Sizes {
    cold: 0.03,
    warm: 0.3,
    mutate: 0.1,
    sharded: 0.04,
};
/// The smoke configuration: a few thousand vertices, still above the
/// policy's tiny-graph CPU fallback.
pub const SMOKE: Sizes = Sizes {
    cold: 0.005,
    warm: 0.005,
    mutate: 0.005,
    sharded: 0.005,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every Color misses the cache: four colorers plus the reduction
    /// post-pass per uploaded graph.
    Cold,
    /// Every Color hits a primed entry; reads of stored colorings.
    Warm,
    /// An edge toggle, then a Color that hits through lineage
    /// revalidation of the incrementally repaired coloring.
    Mutate,
    /// A fresh-seed Balanced Color sharded across two devices.
    Sharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Cold,
        Workload::Warm,
        Workload::Mutate,
        Workload::Sharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Mutate => "mutate",
            Workload::Sharded => "sharded",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The cache outcome every Color reply of this workload must report.
    pub fn expects_hit(self) -> bool {
        matches!(self, Workload::Warm | Workload::Mutate)
    }

    /// Virtual devices per request.
    pub fn devices(self) -> usize {
        match self {
            Workload::Sharded => 2,
            _ => 1,
        }
    }
}

/// SplitMix64 finalizer over `(seed, stream, index)`: every derived seed
/// and random edge is a pure function of the workload seed and the op
/// index, never of timing.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_GRAPH: u64 = 1;
const STREAM_PRIME: u64 = 2;
const STREAM_OP_SEED: u64 = 3;
const STREAM_EDGES: u64 = 4;

/// Uniform vertex pair `(u, v)`, `u != v`, from the stream `(seed, index)`.
fn random_pair(n: u32, seed: u64, index: u64) -> (u32, u32) {
    (0..)
        .map(|t| {
            let r = mix(seed, STREAM_EDGES, index.wrapping_mul(1 << 20) + t);
            ((r % n as u64) as u32, ((r >> 32) % n as u64) as u32)
        })
        .find(|(u, v)| u != v)
        .unwrap()
}

fn generate(dataset: &str, scale: f64, seed: u64) -> Csr {
    gc_datasets::dataset_by_name(dataset)
        .expect("dataset is in the registry")
        .generate(scale, seed)
}

/// Why an op did not count as a success.
#[derive(Debug)]
pub enum OpError {
    /// An error frame (including a shed) or a transport failure.
    Net(NetError),
    /// A reply or fetched coloring that contradicts the workload's
    /// expectation: `verified=false`, the wrong cache outcome, or a
    /// coloring the host check rejects.
    Wrong(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Net(e) => write!(f, "{e}"),
            OpError::Wrong(m) => write!(f, "wrong output: {m}"),
        }
    }
}

impl From<NetError> for OpError {
    fn from(e: NetError) -> Self {
        OpError::Net(e)
    }
}

/// One Color exchange of an op.
#[derive(Clone, Debug)]
pub struct ColorCall {
    pub objective: WireObjective,
    pub seed: u64,
    pub started: Instant,
    /// Client-observed round trip.
    pub ms: f64,
    pub summary: ColorSummary,
}

/// What one successful op did, for the tally and the traced replay.
#[derive(Debug)]
pub struct OpRecord {
    /// Index in the workload's op sequence.
    pub index: u64,
    /// When the op's first request was sent.
    pub started: Instant,
    /// Client-observed op time: first request sent to last reply read.
    pub ms: f64,
    pub graph_id: u64,
    /// The client's copy of the graph the op colored.
    pub graph: Arc<Csr>,
    /// Whether the op uploaded `graph`.
    pub submitted: bool,
    /// For `mutate`: the graph before the op and the delta applied.
    pub mutation: Option<(Arc<Csr>, EdgeDelta)>,
    pub colors: Vec<ColorCall>,
    /// The coloring fetched inside the op (`cold`, `warm`).
    pub payload: Option<ResultPayload>,
}

/// Wall time of one [`Bench::setup`].
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Graph synthesis, server start, upload and priming.
    pub total_s: f64,
    /// Graph synthesis alone.
    pub generate_ms: f64,
}

/// A running workload: server, client, and the client's copy of every
/// graph it tracks.
pub struct Bench {
    workload: Workload,
    seed: u64,
    client: Option<NetClient>,
    server: Option<Server>,
    /// Current version of each tracked graph (index = graph id).
    graphs: Vec<Arc<Csr>>,
    /// `mutate`: each graph's toggle edges and which of them are present.
    toggles: Vec<Vec<((u32, u32), bool)>>,
    next_op: u64,
}

impl Bench {
    /// Synthesizes the workload's graphs, starts a server, uploads every
    /// graph and primes the cache the workload reads.
    pub fn setup(
        workload: Workload,
        sizes: Sizes,
        seed: u64,
    ) -> Result<(Bench, SetupTimes), String> {
        let started = Instant::now();
        let graphs: Vec<Arc<Csr>> = match workload {
            Workload::Sharded => vec![Arc::new(generate(
                "G3_circuit",
                sizes.sharded,
                mix(seed, STREAM_GRAPH, 0),
            ))],
            _ => {
                let scale = match workload {
                    Workload::Cold => sizes.cold,
                    Workload::Warm => sizes.warm,
                    _ => sizes.mutate,
                };
                (0..POOL as u64)
                    .map(|k| Arc::new(generate("ecology2", scale, mix(seed, STREAM_GRAPH, k))))
                    .collect()
            }
        };
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;

        let service = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        }
        .devices(workload.devices());
        let server = Server::start("127.0.0.1:0", NetServerConfig { service })
            .map_err(|e| format!("server start: {e}"))?;
        let client =
            NetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let toggles = graphs
            .iter()
            .enumerate()
            .map(|(k, g)| toggle_pool(g, mix(seed, STREAM_GRAPH, 100 + k as u64)))
            .collect();
        let mut bench = Bench {
            workload,
            seed,
            client: Some(client),
            server: Some(server),
            graphs,
            toggles,
            next_op: 0,
        };
        bench
            .upload_and_prime()
            .map_err(|e| format!("setup: {e}"))?;
        let times = SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            generate_ms,
        };
        Ok((bench, times))
    }

    fn upload_and_prime(&mut self) -> Result<(), OpError> {
        for id in 0..self.graphs.len() {
            let g = Arc::clone(&self.graphs[id]);
            self.client().submit_graph(id as u64, &g)?;
        }
        // Priming is the only miss `warm` and `mutate` see; for `cold`
        // and `sharded` it runs each colorer once so lazily built state
        // (device-buffer pools) exists before timing. Its seeds come from
        // their own stream, so no timed op repeats one.
        let primes: Vec<(u64, WireObjective)> = match self.workload {
            Workload::Cold => OBJECTIVES.iter().map(|o| (0, o.clone())).collect(),
            Workload::Warm | Workload::Mutate => (0..self.graphs.len() as u64)
                .map(|id| (id, self.primed_objective(id)))
                .collect(),
            Workload::Sharded => vec![(0, WireObjective::Balanced)],
        };
        for (j, (id, objective)) in primes.into_iter().enumerate() {
            let seed = self.prime_seed(id, j as u64);
            let summary = self.client().color(id, objective, seed, 0)?;
            if summary.cache_hit || !summary.verified {
                return Err(OpError::Wrong(format!("priming graph {id}: {summary:?}")));
            }
        }
        Ok(())
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    pub fn graphs(&self) -> &[Arc<Csr>] {
        &self.graphs
    }

    /// The objective `warm` and `mutate` read graph `id` under. Spreading
    /// the graphs over all four objectives averages `colors_mean` over
    /// four colorers, which keeps it steady across seeds.
    pub fn primed_objective(&self, id: u64) -> WireObjective {
        OBJECTIVES[id as usize % OBJECTIVES.len()].clone()
    }

    /// The seed graph `id`'s `j`-th priming request used; `warm` and
    /// `mutate` read under the seed of request `j = id`.
    pub fn prime_seed(&self, id: u64, j: u64) -> u64 {
        mix(self.seed, STREAM_PRIME, id * 16 + j)
    }

    fn op_seed(&self, op: u64, j: u64) -> u64 {
        mix(self.seed, STREAM_OP_SEED, op * 16 + j)
    }

    fn client(&mut self) -> &mut NetClient {
        self.client.as_mut().expect("client lives until shutdown")
    }

    /// Runs the next op of the workload's sequence. The op's inputs are
    /// prepared before its timer starts and its outputs checked after it
    /// stops; an `Err` is a failed op and leaves the bench usable.
    pub fn run_op(&mut self) -> Result<OpRecord, OpError> {
        let index = self.next_op;
        self.next_op += 1;
        let record = match self.workload {
            Workload::Cold => self.cold_op(index),
            Workload::Warm => self.warm_op(index),
            Workload::Mutate => self.mutate_op(index),
            Workload::Sharded => {
                let seed = self.op_seed(index, 0);
                self.color_op(index, 0, WireObjective::Balanced, seed)
            }
        }?;
        self.check(&record)?;
        Ok(record)
    }

    /// Upload a freshly perturbed pool graph, color it under every
    /// objective with fresh seeds, fetch the last coloring.
    fn cold_op(&mut self, index: u64) -> Result<OpRecord, OpError> {
        let graph_id = index % POOL as u64;
        let base = &self.graphs[graph_id as usize];
        let n = base.num_vertices() as u32;
        let insert = (0..PERTURB_EDGES as u64)
            .map(|e| random_pair(n, self.seed, index * PERTURB_EDGES as u64 + e))
            .collect();
        let delta = EdgeDelta {
            insert,
            delete: vec![],
        };
        let graph = Arc::new(
            apply_edge_delta(base, &delta)
                .expect("perturbation edges are in range and loop-free")
                .graph,
        );
        let seeds: Vec<u64> = (0..OBJECTIVES.len() as u64)
            .map(|j| self.op_seed(index, j))
            .collect();

        let started = Instant::now();
        self.client().submit_graph(graph_id, &graph)?;
        let mut colors = Vec::with_capacity(OBJECTIVES.len());
        for (objective, seed) in OBJECTIVES.iter().zip(seeds) {
            colors.push(self.color_call(graph_id, objective.clone(), seed)?);
        }
        let payload = self.client().get_result(graph_id)?;
        let ms = started.elapsed().as_secs_f64() * 1e3;

        Ok(OpRecord {
            index,
            started,
            ms,
            graph_id,
            graph,
            submitted: true,
            mutation: None,
            colors,
            payload: Some(payload),
        })
    }

    /// A Color that must hit the primed entry, then GetResult.
    fn warm_op(&mut self, index: u64) -> Result<OpRecord, OpError> {
        let graph_id = index % self.graphs.len() as u64;
        let objective = self.primed_objective(graph_id);
        let seed = self.prime_seed(graph_id, graph_id);

        let started = Instant::now();
        let call = self.color_call(graph_id, objective, seed)?;
        let payload = self.client().get_result(graph_id)?;
        let ms = started.elapsed().as_secs_f64() * 1e3;

        Ok(OpRecord {
            index,
            started,
            ms,
            graph_id,
            graph: Arc::clone(&self.graphs[graph_id as usize]),
            submitted: false,
            mutation: None,
            colors: vec![call],
            payload: Some(payload),
        })
    }

    /// Toggle one long-range edge, then a Color that must hit through
    /// lineage revalidation.
    fn mutate_op(&mut self, index: u64) -> Result<OpRecord, OpError> {
        let graph_id = index % self.graphs.len() as u64;
        let slot = (index / self.graphs.len() as u64) as usize % TOGGLE_POOL;
        let (edge, present) = self.toggles[graph_id as usize][slot];
        let delta = if present {
            EdgeDelta {
                insert: vec![],
                delete: vec![edge],
            }
        } else {
            EdgeDelta {
                insert: vec![edge],
                delete: vec![],
            }
        };
        let objective = self.primed_objective(graph_id);
        let seed = self.prime_seed(graph_id, graph_id);

        let started = Instant::now();
        let ack = self.client().mutate_edges(graph_id, &delta)?;
        let call = self.color_call(graph_id, objective, seed);
        let ms = started.elapsed().as_secs_f64() * 1e3;

        // The server applied the delta; keep the client's copy exact
        // whatever became of the Color.
        let before = Arc::clone(&self.graphs[graph_id as usize]);
        let after = apply_edge_delta(&before, &delta)
            .expect("toggle edges are in range and loop-free")
            .graph;
        self.graphs[graph_id as usize] = Arc::new(after);
        self.toggles[graph_id as usize][slot].1 = !present;
        let call = call?;
        if ack.inserted + ack.deleted != 1 || !ack.revalidated {
            return Err(OpError::Wrong(format!("mutate ack {ack:?}")));
        }

        Ok(OpRecord {
            index,
            started,
            ms,
            graph_id,
            graph: Arc::clone(&self.graphs[graph_id as usize]),
            submitted: false,
            mutation: Some((before, delta)),
            colors: vec![call],
            payload: None,
        })
    }

    /// A single Color of an already uploaded graph.
    pub fn color_op(
        &mut self,
        index: u64,
        graph_id: u64,
        objective: WireObjective,
        seed: u64,
    ) -> Result<OpRecord, OpError> {
        let started = Instant::now();
        let call = self.color_call(graph_id, objective, seed)?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(OpRecord {
            index,
            started,
            ms,
            graph_id,
            graph: Arc::clone(&self.graphs[graph_id as usize]),
            submitted: false,
            mutation: None,
            colors: vec![call],
            payload: None,
        })
    }

    fn color_call(
        &mut self,
        graph_id: u64,
        objective: WireObjective,
        seed: u64,
    ) -> Result<ColorCall, NetError> {
        let started = Instant::now();
        let summary = self.client().color(graph_id, objective.clone(), seed, 0)?;
        Ok(ColorCall {
            objective,
            seed,
            started,
            ms: started.elapsed().as_secs_f64() * 1e3,
            summary,
        })
    }

    /// Checks every reply against the workload's expectation and the
    /// op's coloring against the client's own copy of the graph. Ops
    /// that fetched no coloring fetch it here, outside the timer.
    fn check(&mut self, record: &OpRecord) -> Result<(), OpError> {
        let want_hit = self.workload.expects_hit();
        for call in &record.colors {
            let s = &call.summary;
            if !s.verified {
                return Err(OpError::Wrong(format!("{} reply not verified", s.colorer)));
            }
            if s.cache_hit != want_hit {
                return Err(OpError::Wrong(format!(
                    "{} reply cache_hit={} on {}",
                    s.colorer,
                    s.cache_hit,
                    self.workload.name()
                )));
            }
            if s.devices as usize != self.workload.devices() && s.colorer != "CPU/Color_Greedy" {
                return Err(OpError::Wrong(format!(
                    "{} ran on {} devices",
                    s.colorer, s.devices
                )));
            }
        }
        let fetched;
        let payload = match &record.payload {
            Some(p) => p,
            None => {
                fetched = self.client().get_result(record.graph_id)?;
                &fetched
            }
        };
        let last = record.colors.last().map(|c| c.summary.num_colors);
        if payload.colors.len() != record.graph.num_vertices() || Some(payload.num_colors) != last {
            return Err(OpError::Wrong(format!(
                "fetched coloring of {} vertices with {} colors, expected {} vertices with {last:?}",
                payload.colors.len(),
                payload.num_colors,
                record.graph.num_vertices()
            )));
        }
        is_proper(&record.graph, &payload.colors)
            .map_err(|v| OpError::Wrong(format!("fetched coloring is improper: {v:?}")))
    }

    /// Closes the connection and stops the server, joining its threads.
    pub fn shutdown(mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// [`TOGGLE_POOL`] distinct long-range edges joining the graph's first
/// and last quarters, with whether each is already present.
fn toggle_pool(g: &Csr, seed: u64) -> Vec<((u32, u32), bool)> {
    let n = g.num_vertices() as u32;
    let quarter = (n / 4).max(1);
    let mut pool: Vec<((u32, u32), bool)> = Vec::with_capacity(TOGGLE_POOL);
    let mut i = 0;
    while pool.len() < TOGGLE_POOL {
        let r = mix(seed, STREAM_EDGES, i);
        i += 1;
        let edge = (
            (r % quarter as u64) as u32,
            n - 1 - ((r >> 32) % quarter as u64) as u32,
        );
        if edge.0 != edge.1 && pool.iter().all(|(e, _)| *e != edge) {
            pool.push((edge, g.has_edge(edge.0, edge.1)));
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Sizes = Sizes {
        cold: 0.003,
        warm: 0.003,
        mutate: 0.003,
        sharded: 0.002,
    };

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hot"), None);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Bench::setup(Workload::Mutate, TINY, 7).unwrap().0;
        let b = Bench::setup(Workload::Mutate, TINY, 7).unwrap().0;
        assert_eq!(a.graphs, b.graphs);
        assert_eq!(a.toggles, b.toggles);
        assert_ne!(mix(7, STREAM_OP_SEED, 1), mix(8, STREAM_OP_SEED, 1));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn every_workload_passes_its_own_checks() {
        for w in Workload::ALL {
            let (mut bench, _) = Bench::setup(w, TINY, 3).unwrap();
            for _ in 0..2 * POOL {
                let r = bench
                    .run_op()
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(r.ms > 0.0);
            }
            bench.shutdown();
        }
    }
}
