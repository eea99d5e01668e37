//! The incremental-recoloring gate: after a ≤1% edge delta, repairing
//! the stored coloring through `MutateEdges` must cost at least
//! [`MIN_INCREMENTAL_SPEEDUP`]× fewer simulated thread executions than
//! coloring the graph from scratch, keep the coloring proper, and carry
//! the cached result across the mutation. Two tighter bounds pin the
//! repair's work to the delta itself: the frontier holds at most the
//! two endpoints of each changed edge, and every detect or recolor
//! launch scans at most the frontier.

use gc_core::verify::is_proper;
use gc_graph::{apply_edge_delta, Csr, EdgeDelta};
use gc_net::{NetClient, NetServerConfig, Server, WireObjective};

/// Full-recolor thread executions over incremental-repair thread
/// executions must be at least this.
const MIN_INCREMENTAL_SPEEDUP: u64 = 5;

const SEED: u64 = 42;

/// Builds a ≤1% edge delta for `g`: half deletes of existing edges,
/// half inserts of fresh long-range pairs, all deterministic in `seed`.
fn one_percent_delta(g: &Csr, seed: u64) -> EdgeDelta {
    let n = g.num_vertices() as u64;
    let target = (g.num_edges() / 200).clamp(8, 512);
    let mut delete = Vec::new();
    let mut insert = Vec::new();
    let mut x = seed | 1;
    let mut step = || {
        // xorshift64 — cheap, deterministic, no rand dependency.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    while delete.len() < target / 2 {
        let u = (step() % n) as u32;
        if let Some(&v) = g.neighbors(u).first() {
            if u != v && !delete.contains(&(u, v)) && !delete.contains(&(v, u)) {
                delete.push((u, v));
            }
        }
    }
    while insert.len() < target - target / 2 {
        let a = (step() % n) as u32;
        let b = (step() % n) as u32;
        if a != b && !g.has_edge(a, b) && !insert.contains(&(a, b)) && !insert.contains(&(b, a)) {
            insert.push((a, b));
        }
    }
    EdgeDelta { insert, delete }
}

#[test]
fn ecology2_repair_after_a_one_percent_delta_is_five_times_cheaper_than_a_full_recolor() {
    let spec = gc_datasets::dataset_by_name("ecology2").expect("ecology2 is registered");
    // The from-scratch run must go through a device colorer (CPU
    // fallbacks report no thread executions), so the instance has to
    // clear the service's tiny-graph threshold with margin.
    let min_scale = 1.3 * gc_service::TINY_GRAPH_VERTICES as f64 / spec.paper_vertices as f64;
    let g = spec.generate(gc_datasets::TEST_SCALE.max(min_scale), SEED);
    assert!(g.num_vertices() > gc_service::TINY_GRAPH_VERTICES);

    let server = Server::start("127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.submit_graph(1, &g).unwrap();
    let full = client.color(1, WireObjective::Balanced, SEED, 0).unwrap();
    assert!(full.verified);
    assert!(
        full.thread_executions > 0,
        "{} reported no thread executions",
        full.colorer
    );

    let delta = one_percent_delta(&g, SEED);
    let delta_edges = delta.insert.len() + delta.delete.len();
    assert!(
        delta_edges > 0 && delta_edges * 100 <= g.num_edges(),
        "delta of {delta_edges} edges is not in (0, 1%] of {} edges",
        g.num_edges()
    );
    let ack = client.mutate_edges(1, &delta).unwrap();
    assert!(
        ack.repair_thread_executions * MIN_INCREMENTAL_SPEEDUP <= full.thread_executions,
        "incremental repair ({} thread executions, frontier {}, {} rounds) is not \
         {MIN_INCREMENTAL_SPEEDUP}x cheaper than the full recolor by {} ({})",
        ack.repair_thread_executions,
        ack.frontier,
        ack.repair_rounds,
        full.colorer,
        full.thread_executions
    );
    // Each changed edge touches at most its two endpoints.
    assert!(
        ack.frontier as usize <= 2 * delta_edges,
        "repair frontier of {} vertices exceeds the {} endpoints of {delta_edges} changed edges",
        ack.frontier,
        2 * delta_edges
    );
    // `repair_frontier` runs one detect launch per round plus the final
    // clean one, and one recolor launch per conflict round; each scans a
    // subset of the frontier.
    let per_launch = u64::from(ack.frontier);
    let launches = 2 * (u64::from(ack.repair_rounds) + 1);
    assert!(
        ack.repair_thread_executions <= per_launch * launches,
        "repair ran {} thread executions, more than {launches} launches over a \
         frontier of {per_launch}",
        ack.repair_thread_executions
    );
    assert!(ack.revalidated, "the cached entry was not revalidated");

    // Host-side ground truth: the merged coloring must be proper on a
    // locally applied copy of the same delta.
    let merged = apply_edge_delta(&g, &delta).unwrap().graph;
    let result = client.get_result(1).unwrap();
    assert!(is_proper(&merged, &result.colors).is_ok());

    let again = client.color(1, WireObjective::Balanced, SEED, 0).unwrap();
    assert!(again.cache_hit, "the next Color after the delta missed");
    server.stop();
}
