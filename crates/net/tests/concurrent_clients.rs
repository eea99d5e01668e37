//! Concurrent clients against one server: each connection tracks its
//! own graph and interleaves `Color`, `GetResult` and `MutateEdges`
//! with the others. Every reply must succeed, every coloring must
//! verify, and the server must decode every frame.

use std::sync::Barrier;

use gc_core::verify::is_proper;
use gc_graph::generators::{grid2d, Stencil2d};
use gc_graph::{apply_edge_delta, EdgeDelta};
use gc_net::{NetClient, NetServerConfig, Server, WireObjective};

/// Fewer clients than the default 64-slot admission queue holds, so no
/// request can be shed and every reply must succeed.
const CLIENTS: usize = 8;
/// Requests each client issues between priming its graph and the final
/// `GetResult`.
const OPS_PER_CLIENT: usize = 60;
/// Long-range edges each client toggles.
const POOL: usize = 8;

#[test]
fn eight_concurrent_clients_get_verified_replies_and_no_protocol_errors() {
    let server = Server::start("127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let mesh = grid2d(24, 24, Stencil2d::FivePoint);
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (mesh, start) = (&mesh, &start);
            scope.spawn(move || {
                start.wait();
                let gid = c as u64 + 1;
                let mut client = NetClient::connect(addr).expect("connect");
                client.submit_graph(gid, mesh).unwrap();
                let primed = client.color(gid, WireObjective::Balanced, 0, 0).unwrap();
                assert!(primed.verified, "client {c}: unverified Color");

                // Corner 0 against the top row: never a stencil edge, so
                // each toggle's presence is tracked exactly.
                let n = mesh.num_vertices() as u32;
                let pool: Vec<(u32, u32)> = (0..POOL as u32).map(|k| (0, n - 1 - k)).collect();
                let mut present = [false; POOL];
                // Host-side ground truth: the mesh plus the present edges.
                let tracked = |present: &[bool; POOL]| {
                    let insert = pool
                        .iter()
                        .zip(present)
                        .filter(|(_, p)| **p)
                        .map(|(e, _)| *e)
                        .collect();
                    let delta = EdgeDelta {
                        insert,
                        delete: vec![],
                    };
                    apply_edge_delta(mesh, &delta).unwrap().graph
                };
                let mut repaired = false;
                for j in 0..OPS_PER_CLIENT {
                    match j % 4 {
                        0 | 1 => {
                            let seed = (j % 2) as u64;
                            let s = client
                                .color(gid, WireObjective::Balanced, seed, 0)
                                .unwrap_or_else(|e| panic!("client {c}: Color failed: {e}"));
                            assert!(s.verified, "client {c}: unverified Color");
                        }
                        2 => {
                            let result = client
                                .get_result(gid)
                                .unwrap_or_else(|e| panic!("client {c}: GetResult failed: {e}"));
                            assert!(
                                is_proper(&tracked(&present), &result.colors).is_ok(),
                                "client {c}: GetResult {j} is not proper"
                            );
                        }
                        _ => {
                            let k = (j / 4) % POOL;
                            let delta = if present[k] {
                                EdgeDelta {
                                    insert: vec![],
                                    delete: vec![pool[k]],
                                }
                            } else {
                                EdgeDelta {
                                    insert: vec![pool[k]],
                                    delete: vec![],
                                }
                            };
                            let ack = client
                                .mutate_edges(gid, &delta)
                                .unwrap_or_else(|e| panic!("client {c}: MutateEdges failed: {e}"));
                            present[k] = !present[k];
                            repaired |= ack.frontier > 0;
                        }
                    }
                }
                assert!(repaired, "client {c}: no repair had a non-empty frontier");

                let result = client.get_result(gid).unwrap();
                assert!(
                    is_proper(&tracked(&present), &result.colors).is_ok(),
                    "client {c}: final coloring is not proper"
                );
            });
        }
    });

    let mut observer = NetClient::connect(addr).expect("connect");
    let ticks = observer.subscribe_stats(1, 0).unwrap();
    let tick = ticks.last().expect("one stats tick");
    assert_eq!(tick.frames_bad, 0);
    // Submit, prime, the mix and the final GetResult: one frame each.
    assert!(tick.frames_ok >= (CLIENTS * (OPS_PER_CLIENT + 3)) as u64);
    server.stop();
}
