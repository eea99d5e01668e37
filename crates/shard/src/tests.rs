//! Sharded-coloring tests: validity on arbitrary graphs for N in
//! {1, 2, 4}, bit-identity at N = 1, color-count discipline, and the
//! telemetry/metering wiring.

use proptest::prelude::*;

use gc_core::runner::{all_colorers, colorer_by_name, Colorer};
use gc_core::verify::is_proper;
use gc_graph::{generators, Csr, GraphBuilder, Partition};

use gc_graph::PartitionStrategy;

use crate::{run_sharded, run_sharded_with, ShardedConfig, MAX_CONFLICT_ROUNDS};

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

/// A partition built once and handed to `run_sharded_with` gives the
/// run `run_sharded` gives, for every strategy and several seeds on the
/// same partition.
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
            let partition = Partition::with_strategy(&g, devices, strategy);
            for seed in [1u64, 2, 3] {
                let direct = run_sharded(&c, &g, seed, &cfg);
                let reused = run_sharded_with(&c, &g, &partition, seed, &cfg);
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
