//! Sharded-coloring tests: validity on arbitrary graphs for N in
//! {1, 2, 4}, bit-identity at N = 1, color-count discipline, the
//! telemetry/metering wiring, the cut tables against their reference
//! build, and the tail sweep against the full one.

use std::collections::BTreeSet;

use proptest::prelude::*;

use gc_core::runner::{all_colorers, colorer_by_name, Colorer};
use gc_core::verify::is_proper;
use gc_graph::{generators, Csr, GraphBuilder, Partition, VertexId};
use gc_vgpu::Device;

use gc_graph::PartitionStrategy;

use crate::repair::{greedy_repair_at, greedy_repair_host};
use crate::{
    resolve_conflicts, run_sharded, run_sharded_with, speculate, CutAddressing, CutPlan,
    InitialConflicts, ShardedConfig, HAS_LARGER, HAS_SMALLER, LARGER_BIT, MAX_CONFLICT_ROUNDS,
};

fn arb_graph() -> impl Strategy<Value = Csr> {
    (1usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..120)
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build())
    })
}

fn gpu_colorers() -> Vec<Colorer> {
    all_colorers().into_iter().filter(|c| c.is_gpu()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The tentpole property: for every GPU colorer and N in {1, 2, 4},
    // the merged coloring is proper, and its color count stays within
    // the conflict-round bound of the single-device run (each round
    // recolors an independent set to a mex, so it can push the palette
    // up by at most one color per round).
    #[test]
    fn sharded_colorings_are_proper_and_bounded(g in arb_graph(), seed in 0u64..200) {
        for c in gpu_colorers() {
            let single = c.run(&g, seed);
            for n in [1usize, 2, 4] {
                let sharded = run_sharded(&c, &g, seed, &ShardedConfig::new(n));
                prop_assert!(
                    is_proper(&g, sharded.result.coloring.as_slice()).is_ok(),
                    "{} devices={} produced an improper merged coloring",
                    c.name(), n
                );
                prop_assert!(sharded.verified, "{} devices={} failed verify", c.name(), n);
                prop_assert!(
                    sharded.conflict_rounds <= MAX_CONFLICT_ROUNDS,
                    "{} devices={} exceeded the round cap", c.name(), n
                );
                let bound = single.num_colors + sharded.conflict_rounds + 1;
                prop_assert!(
                    sharded.result.num_colors <= bound,
                    "{} devices={}: {} colors vs single-device {} + {} rounds",
                    c.name(), n, sharded.result.num_colors,
                    single.num_colors, sharded.conflict_rounds
                );
            }
        }
    }

    // devices = 1 must be the unsharded run, bit for bit: same colors,
    // same iteration count, same model time.
    #[test]
    fn one_device_is_bit_identical_to_unsharded(g in arb_graph(), seed in 0u64..200) {
        for c in gpu_colorers() {
            let single = c.run(&g, seed);
            let sharded = run_sharded(&c, &g, seed, &ShardedConfig::new(1));
            prop_assert_eq!(
                sharded.result.coloring.as_slice(),
                single.coloring.as_slice(),
                "{} devices=1 coloring diverged", c.name()
            );
            prop_assert_eq!(sharded.result.iterations, single.iterations);
            prop_assert_eq!(sharded.result.model_ms, single.model_ms);
            prop_assert_eq!(sharded.conflict_rounds, 0);
            prop_assert_eq!(sharded.halo_bytes, 0);
        }
    }

    #[test]
    fn sharded_runs_are_deterministic(g in arb_graph(), seed in 0u64..100) {
        let c = colorer_by_name("Gunrock/Color_IS").unwrap();
        let a = run_sharded(&c, &g, seed, &ShardedConfig::new(3));
        let b = run_sharded(&c, &g, seed, &ShardedConfig::new(3));
        prop_assert_eq!(a.result.coloring.as_slice(), b.result.coloring.as_slice());
        prop_assert_eq!(a.conflict_rounds, b.conflict_rounds);
        prop_assert_eq!(a.halo_bytes, b.halo_bytes);
        prop_assert_eq!(a.result.model_ms, b.result.model_ms);
    }

    // Delta-only halo exchange is a pure traffic optimization: it must
    // produce bit-identical colorings with identical conflict-round
    // counts to the full per-round exchange, for every N and strategy —
    // and it must never move more bytes.
    #[test]
    fn delta_halo_matches_full_halo(g in arb_graph(), seed in 0u64..100) {
        let c = colorer_by_name("Gunrock/Color_IS").unwrap();
        for n in [2usize, 4, 8] {
            for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::BfsGrown] {
                let mut full = ShardedConfig::new(n);
                full.strategy = strategy;
                full.delta_halo = false;
                let mut delta = full.clone();
                delta.delta_halo = true;
                let a = run_sharded(&c, &g, seed, &full);
                let b = run_sharded(&c, &g, seed, &delta);
                prop_assert_eq!(
                    a.result.coloring.as_slice(),
                    b.result.coloring.as_slice(),
                    "delta halo diverged (n={}, {:?})", n, strategy
                );
                prop_assert_eq!(
                    a.conflict_rounds, b.conflict_rounds,
                    "round counts diverged (n={}, {:?})", n, strategy
                );
                prop_assert!(
                    b.halo_bytes_delta <= a.halo_bytes_delta,
                    "delta moved more bytes than full (n={}, {:?}): {} > {}",
                    n, strategy, b.halo_bytes_delta, a.halo_bytes_delta
                );
                prop_assert!(b.verified && a.verified);
            }
        }
    }

    // The partition strategy never changes correctness: either one
    // yields a proper, verified coloring.
    #[test]
    fn partition_strategies_preserve_correctness(g in arb_graph(), seed in 0u64..100) {
        let c = colorer_by_name("Gunrock/Color_Hash").unwrap();
        for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::BfsGrown] {
            let mut cfg = ShardedConfig::new(4);
            cfg.strategy = strategy;
            let sharded = run_sharded(&c, &g, seed, &cfg);
            prop_assert!(
                is_proper(&g, sharded.result.coloring.as_slice()).is_ok(),
                "{:?} produced an improper coloring", strategy
            );
            prop_assert!(sharded.verified);
        }
    }
}

#[test]
fn cpu_colorer_falls_back_to_single_device() {
    let g = generators::erdos_renyi(100, 0.05, 1);
    let c = colorer_by_name("CPU/Color_Greedy").unwrap();
    let sharded = run_sharded(&c, &g, 7, &ShardedConfig::new(4));
    assert_eq!(
        sharded.devices, 1,
        "CPU colorers have no devices to shard over"
    );
    assert!(sharded.per_device.is_empty());
    assert!(sharded.verified);
    let single = c.run(&g, 7);
    assert_eq!(
        sharded.result.coloring.as_slice(),
        single.coloring.as_slice()
    );
}

#[test]
fn empty_graph_shards_cleanly() {
    let g = Csr::empty(0);
    let c = colorer_by_name("Gunrock/Color_Hash").unwrap();
    let sharded = run_sharded(&c, &g, 1, &ShardedConfig::new(4));
    assert!(sharded.result.coloring.is_empty());
    assert!(sharded.verified);
}

#[test]
fn more_devices_than_vertices() {
    let g = generators::path(3);
    let c = colorer_by_name("Gunrock/Color_IS").unwrap();
    let sharded = run_sharded(&c, &g, 5, &ShardedConfig::new(8));
    assert!(is_proper(&g, sharded.result.coloring.as_slice()).is_ok());
    assert_eq!(sharded.devices, 8);
    assert_eq!(sharded.per_device.len(), 8);
}

#[test]
fn multi_device_run_meters_halo_traffic_and_spreads_work() {
    // A mesh, like the paper's datasets: contiguous-range sharding gives
    // small boundaries, so per-device work genuinely shrinks.
    let g = generators::grid2d(60, 60, generators::Stencil2d::FivePoint);
    let c = colorer_by_name("Gunrock/Color_IS").unwrap();
    let single = run_sharded(&c, &g, 3, &ShardedConfig::new(1));
    let quad = run_sharded(&c, &g, 3, &ShardedConfig::new(4));
    assert!(quad.verified);
    assert!(
        quad.cut_edges > 0,
        "an ER graph this dense must have cut edges"
    );
    assert!(quad.halo_bytes > 0, "halo exchange must be metered");
    let per_dev: Vec<u64> = quad
        .per_device
        .iter()
        .map(|d| d.thread_executions)
        .collect();
    let single_te = single
        .result
        .profile
        .as_ref()
        .expect("profile attached")
        .thread_executions;
    assert!(
        quad.max_device_thread_executions() < single_te,
        "per-device work {per_dev:?} must shrink below single-device {single_te}"
    );
    // Every device that exchanged halo data billed d2d traffic.
    assert!(quad.per_device.iter().any(|d| d.d2d_bytes > 0));
}

#[test]
fn merged_profile_counts_every_device_kernel() {
    // The merged report's kernel totals must cover every device, so they
    // equal the sums of its own per-kernel rows.
    let g = generators::erdos_renyi(2000, 0.004, 3);
    let c = colorer_by_name("Gunrock/Color_IS").unwrap();
    for n in [2usize, 4] {
        let sharded = run_sharded(&c, &g, 7, &ShardedConfig::new(n));
        let p = sharded.result.profile.as_ref().expect("profile attached");
        let rows = |f: fn(&gc_vgpu::profiler::KernelSummary) -> u64| -> u64 {
            p.by_kernel.values().map(f).sum()
        };
        assert_eq!(p.kernel_bytes, rows(|s| s.total_bytes), "{n} devices");
        assert_eq!(p.kernel_atomics, rows(|s| s.total_atomics), "{n} devices");
        assert_eq!(
            p.thread_executions,
            rows(|s| s.total_threads),
            "{n} devices"
        );
        let per_device: u64 = sharded.per_device.iter().map(|d| d.thread_executions).sum();
        assert_eq!(p.thread_executions, per_device, "{n} devices");
    }
}

/// A plan built once and handed to `run_sharded_with` gives the run
/// `run_sharded` gives, for every strategy and several seeds on the
/// same plan.
#[test]
fn run_sharded_with_a_prebuilt_partition_is_bit_identical() {
    let g = generators::grid2d(40, 40, generators::Stencil2d::NinePoint);
    let c = colorer_by_name("Gunrock/Color_IS").unwrap();
    for strategy in [PartitionStrategy::BfsGrown, PartitionStrategy::Contiguous] {
        for devices in [2usize, 4] {
            let cfg = ShardedConfig {
                strategy,
                ..ShardedConfig::new(devices)
            };
            let plan = CutPlan::new(Partition::with_strategy(&g, devices, strategy));
            for seed in [1u64, 2, 3] {
                let direct = run_sharded(&c, &g, seed, &cfg);
                let reused = run_sharded_with(&c, &g, &plan, seed, &cfg);
                let what = format!("{strategy:?} devices={devices} seed={seed}");
                assert_eq!(reused.result.coloring, direct.result.coloring, "{what}");
                assert_eq!(reused.conflict_rounds, direct.conflict_rounds, "{what}");
                assert_eq!(reused.halo_bytes, direct.halo_bytes, "{what}");
                assert_eq!(reused.halo_bytes_delta, direct.halo_bytes_delta, "{what}");
                assert_eq!(
                    reused.result.model_ms.to_bits(),
                    direct.result.model_ms.to_bits(),
                    "{what}"
                );
                assert!(reused.conflict_rounds > 0, "{what}: the cut is not empty");
            }
        }
    }
}

#[test]
fn sharded_run_emits_shard_span_family() {
    let g = generators::erdos_renyi(300, 0.03, 5);
    let c = colorer_by_name("Gunrock/Color_Hash").unwrap();
    let tracer = gc_telemetry::Tracer::new();
    let sharded = {
        let _cur = tracer.make_current();
        run_sharded(&c, &g, 11, &ShardedConfig::new(3))
    };
    assert!(sharded.verified);
    let recs = tracer.records();
    let names: Vec<&str> = recs.iter().map(|r| r.name.as_str()).collect();
    let shard = recs.iter().find(|r| r.name == "shard").expect("shard span");
    assert!(shard.attrs.iter().any(|(k, v)| k == "devices" && v == "3"));
    assert!(shard.attrs.iter().any(|(k, _)| k == "halo_bytes"));
    assert!(
        names.contains(&"shard_sync"),
        "missing shard_sync in {names:?}"
    );
    assert!(names.contains(&"halo_exchange"));
    assert!(
        names.contains(&"vgpu::memcpy_d2d_async"),
        "halo exchange must emit async d2d transfer events"
    );
    // Each device worker colored on its own lane, named after its thread.
    let lanes = tracer.lane_names();
    for d in 0..3 {
        let want = format!("gc-shard-dev-{d}");
        assert!(
            lanes.iter().any(|(_, n)| n == &want),
            "missing lane {want} in {lanes:?}"
        );
    }
}

#[test]
fn conflict_rounds_are_bounded_on_adversarial_graphs() {
    // Complete bipartite graphs maximize cut edges under a contiguous
    // split; star graphs concentrate them on one hub.
    for g in [
        generators::complete_bipartite(40, 40),
        generators::star(120),
        generators::complete(24),
    ] {
        for n in [2usize, 4] {
            let c = colorer_by_name("Naumov/Color_JPL").unwrap();
            let sharded = run_sharded(&c, &g, 2, &ShardedConfig::new(n));
            assert!(is_proper(&g, sharded.result.coloring.as_slice()).is_ok());
            assert!(sharded.conflict_rounds <= MAX_CONFLICT_ROUNDS);
        }
    }
}

/// SplitMix64 step, for the seeded cases below.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small G3_circuit stand-in: local wiring plus long nets, so most of
/// its vertices sit on a cut under any split.
fn small_circuit() -> Csr {
    gc_datasets::dataset_by_name("G3_circuit")
        .expect("G3_circuit is registered")
        .generate(0.002, 42)
}

/// The recolor order as the cut tables were first built: both ids
/// hashed on every call.
fn ref_outranks(a: u64, b: u64) -> bool {
    fn key(x: u64) -> u64 {
        let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }
    (key(a), a) > (key(b), b)
}

/// `InitialConflicts::compute` as first written: `(frontier, changed)`.
fn ref_initial_conflicts(partition: &Partition, colors: &[u32]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let mut frontier = Vec::new();
    let mut changed = Vec::new();
    for s in partition.shards() {
        let mut f = Vec::new();
        let mut c = Vec::new();
        for (b, &v) in s.boundary.iter().enumerate() {
            let my_gid = (s.start + v) as usize;
            let my = colors[my_gid];
            if my == 0 {
                continue;
            }
            let mut bits = 0u32;
            for &gid in &s.cut_neighbors[s.cut_offsets[b]..s.cut_offsets[b + 1]] {
                if colors[gid as usize] == my {
                    bits |= if ref_outranks(gid as u64, my_gid as u64) {
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
    (frontier, changed)
}

/// The cut tables as first built, per request: `BTreeSet` send lists,
/// binary searches over boundaries and send lists, per-call
/// `outranks`, and per-peer reference masks in place of ranks.
struct RefAddressing {
    peers: Vec<Vec<usize>>,
    sl: Vec<Vec<Vec<u32>>>,
    seg_off: Vec<Vec<u32>>,
    halo_len: Vec<usize>,
    halo_idx: Vec<Vec<u32>>,
    ref_mask: Vec<Vec<u64>>,
    bb_off: Vec<Vec<u32>>,
    bb_adj: Vec<Vec<u32>>,
}

fn ref_addressing(partition: &Partition, frontier: &[Vec<u32>]) -> RefAddressing {
    let shards = partition.shards();
    let k = shards.len();

    let mut referenced: Vec<Vec<BTreeSet<u32>>> =
        vec![(0..k).map(|_| Default::default()).collect(); k];
    for s in shards {
        for &b in &frontier[s.index] {
            let b = b as usize;
            for &gid in &s.cut_neighbors[s.cut_offsets[b]..s.cut_offsets[b + 1]] {
                let o = partition.shard_of(gid);
                let local = gid - shards[o].start;
                let slot = shards[o]
                    .boundary
                    .binary_search(&local)
                    .expect("cut neighbor must be on its owner's boundary");
                referenced[o][s.index].insert(slot as u32);
            }
        }
    }

    let mut peers = Vec::with_capacity(k);
    let mut sl: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); k]; k];
    let mut ref_mask = Vec::with_capacity(k);
    for i in 0..k {
        let ps: Vec<usize> = (0..k)
            .filter(|&j| !referenced[i][j].is_empty() || !referenced[j][i].is_empty())
            .collect();
        let mut mask = vec![0u64; shards[i].boundary.len()];
        for (p, &j) in ps.iter().enumerate() {
            let list: Vec<u32> = referenced[i][j].iter().copied().collect();
            for &s in &list {
                mask[s as usize] |= if p < 64 { 1 << p } else { u64::MAX };
            }
            sl[i][j] = list;
        }
        peers.push(ps);
        ref_mask.push(mask);
    }

    let mut seg_off = Vec::with_capacity(k);
    let mut halo_len = Vec::with_capacity(k);
    let mut halo_idx = Vec::with_capacity(k);
    for j in 0..k {
        let mut offs = Vec::with_capacity(peers[j].len());
        let mut len = 0u32;
        for &o in &peers[j] {
            offs.push(len);
            len += sl[o][j].len() as u32;
        }
        let s = &shards[j];
        let mut idx = vec![0u32; s.cut_neighbors.len()];
        for &b in &frontier[j] {
            let b = b as usize;
            let my_gid = s.start + s.boundary[b];
            let range = s.cut_offsets[b]..s.cut_offsets[b + 1];
            for (&gid, out) in s.cut_neighbors[range.clone()]
                .iter()
                .zip(idx[range].iter_mut())
            {
                let o = partition.shard_of(gid);
                let local = gid - shards[o].start;
                let slot = shards[o].boundary.binary_search(&local).unwrap() as u32;
                let p = peers[j].iter().position(|&x| x == o).unwrap();
                let pos = offs[p] + sl[o][j].binary_search(&slot).unwrap() as u32;
                *out = pos
                    | if ref_outranks(gid as u64, my_gid as u64) {
                        LARGER_BIT
                    } else {
                        0
                    };
            }
        }
        seg_off.push(offs);
        halo_len.push(len as usize);
        halo_idx.push(idx);
    }

    let mut bb_off = Vec::with_capacity(k);
    let mut bb_adj = Vec::with_capacity(k);
    for s in shards {
        let row_off = s.local.row_offsets();
        let cols = s.local.col_indices();
        let mut offs = Vec::with_capacity(s.boundary.len() + 1);
        let mut adj = Vec::new();
        offs.push(0u32);
        for &v in &s.boundary {
            let v_gid = (s.start + v) as u64;
            let v = v as usize;
            for &u in &cols[row_off[v]..row_off[v + 1]] {
                if s.boundary.binary_search(&u).is_ok() {
                    let u_gid = (s.start + u) as u64;
                    adj.push(
                        u | if ref_outranks(u_gid, v_gid) {
                            LARGER_BIT
                        } else {
                            0
                        },
                    );
                }
            }
            offs.push(adj.len() as u32);
        }
        bb_off.push(offs);
        bb_adj.push(adj);
    }

    RefAddressing {
        peers,
        sl,
        seg_off,
        halo_len,
        halo_idx,
        ref_mask,
        bb_off,
        bb_adj,
    }
}

/// Builds the cut tables of `g` split `k` ways by `strategy` — the
/// [`CutPlan`] plus a request's [`CutAddressing`] — and requires every
/// table the conflict loop reads to equal the reference build: the
/// round-1 frontier and changed sets of a random coloring, and the
/// addressing for that frontier, for random subsets of each boundary
/// and for whole boundaries.
fn check_cut_tables(g: &Csr, k: usize, strategy: PartitionStrategy, seed: u64) {
    let plan = CutPlan::new(Partition::with_strategy(g, k, strategy));
    let partition = plan.partition();
    let shards = partition.shards();
    let what = format!("k={k} {strategy:?} seed={seed}");
    let mut rng = seed;

    // A small palette, 0 (uncolored) included, makes many cut edges
    // monochromatic.
    let colors: Vec<u32> = (0..g.num_vertices())
        .map(|_| (next(&mut rng) % 4) as u32)
        .collect();
    let init = InitialConflicts::compute(&plan, &colors);
    let (frontier, changed) = ref_initial_conflicts(partition, &colors);
    assert_eq!(init.frontier, frontier, "{what}: round-1 frontier");
    assert_eq!(init.changed, changed, "{what}: round-1 changed set");

    let random: Vec<Vec<u32>> = shards
        .iter()
        .map(|s| {
            (0..s.boundary.len() as u32)
                .filter(|_| !next(&mut rng).is_multiple_of(3))
                .collect()
        })
        .collect();
    let whole: Vec<Vec<u32>> = shards
        .iter()
        .map(|s| (0..s.boundary.len() as u32).collect())
        .collect();
    for (name, frontier) in [
        ("round 1", &init.frontier),
        ("random", &random),
        ("whole", &whole),
    ] {
        let what = format!("{what} {name} frontier");
        let addr = CutAddressing::build(&plan, frontier);
        let want = ref_addressing(partition, frontier);
        assert_eq!(addr.peers, want.peers, "{what}: peers");
        assert_eq!(addr.sl, want.sl, "{what}: send lists");
        assert_eq!(addr.seg_off, want.seg_off, "{what}: segment offsets");
        assert_eq!(addr.halo_len, want.halo_len, "{what}: halo lengths");
        assert_eq!(addr.halo_idx, want.halo_idx, "{what}: halo positions");
        assert_eq!(plan.bb_off, want.bb_off, "{what}: bb offsets");
        assert_eq!(plan.bb_adj, want.bb_adj, "{what}: bb adjacency");
        for (i, s) in shards.iter().enumerate() {
            // The ranks answer what the reference masks answered (which
            // peers reference a slot), and each is the slot's position
            // in its send list.
            let mask: Vec<u64> = (0..s.boundary.len() as u32)
                .map(|slot| {
                    addr.peers[i]
                        .iter()
                        .enumerate()
                        .filter(|&(_, &j)| addr.rank_of(i, j, slot).is_some())
                        .fold(0, |m, (p, _)| m | if p < 64 { 1 << p } else { u64::MAX })
                })
                .collect();
            assert_eq!(mask, want.ref_mask[i], "{what}: reference masks of {i}");
            for j in 0..k {
                for (r, &slot) in want.sl[i][j].iter().enumerate() {
                    assert_eq!(addr.rank_of(i, j, slot), Some(r as u32), "{what}: rank");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cut_tables_match_the_reference_build(g in arb_graph(), seed in any::<u64>()) {
        for k in [2usize, 3, 4, 8] {
            for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::BfsGrown] {
                check_cut_tables(&g, k, strategy, seed);
            }
        }
    }

    // The sweep over a candidate set holding both endpoints of every
    // monochromatic edge (plus random extras) is the full sweep, on
    // random colorings from a small palette.
    #[test]
    fn tail_sweep_matches_the_full_sweep(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = seed;
        let colors: Vec<u32> = (0..g.num_vertices())
            .map(|_| (next(&mut rng) % 4) as u32)
            .collect();
        let mut candidates: BTreeSet<VertexId> = g
            .edges()
            .filter(|&(u, v)| colors[u as usize] == colors[v as usize])
            .flat_map(|(u, v)| [u, v])
            .collect();
        candidates.extend(g.vertices().filter(|_| next(&mut rng).is_multiple_of(4)));
        let candidates: Vec<VertexId> = candidates.into_iter().collect();
        let mut full = colors.clone();
        greedy_repair_host(&g, &mut full);
        let mut tail = colors;
        greedy_repair_at(&g, &mut tail, &candidates);
        prop_assert_eq!(tail, full);
    }
}

#[test]
fn cut_tables_match_the_reference_build_on_a_high_cut_circuit() {
    let g = small_circuit();
    for k in [2usize, 3, 4, 8] {
        for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::BfsGrown] {
            for seed in [1u64, 2] {
                check_cut_tables(&g, k, strategy, seed);
            }
        }
    }
}

/// On a graph whose conflict loop hands off a tail at 2, 4 and 8
/// devices, the merged coloring is what the greedy sweep over the whole
/// graph makes of the loop's output.
#[test]
fn sharded_tail_sweep_matches_the_full_sweep() {
    let g = small_circuit();
    let c = colorer_by_name("Gunrock/Color_IS").unwrap();
    for devices in [2usize, 4, 8] {
        for strategy in [PartitionStrategy::Contiguous, PartitionStrategy::BfsGrown] {
            let cfg = ShardedConfig {
                strategy,
                ..ShardedConfig::new(devices)
            };
            let seed = 7;
            let plan = CutPlan::new(Partition::with_strategy(&g, devices, strategy));
            let devs: Vec<Device> = (0..devices).map(|_| Device::k40c()).collect();
            let (_, mut colors) = speculate(&c, plan.partition(), &devs, seed);
            let stats = resolve_conflicts(&plan, &devs, &mut colors, &cfg);
            let what = format!("{devices} devices, {strategy:?}");
            assert!(!stats.clean, "{what}: the loop must hand off a tail");
            assert!(stats.tail.len() < g.num_vertices() / 4, "{what}: tail");
            // The frontier invariant the restricted sweep relies on.
            let tail: BTreeSet<VertexId> = stats
                .tail
                .iter()
                .map(|&v| plan.partition().input_id(v))
                .collect();
            let mut full = plan.partition().unpermute(&colors);
            for (u, v) in g.edges() {
                if full[u as usize] == full[v as usize] {
                    assert!(tail.contains(&u) && tail.contains(&v), "{what}: ({u}, {v})");
                }
            }
            greedy_repair_host(&g, &mut full);
            let run = run_sharded(&c, &g, seed, &cfg);
            assert_eq!(run.result.coloring.as_slice(), &full[..], "{what}");
            assert!(run.verified, "{what}");
        }
    }
}
