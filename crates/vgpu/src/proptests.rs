//! Property-based tests for the virtual GPU.

use std::collections::BTreeMap;

use proptest::prelude::*;

use crate::buffer::DeviceBuffer;
use crate::config::DeviceConfig;
use crate::cost::KernelCost;
use crate::device::Device;
use crate::primitives::{
    compact, compact_indices, compact_indices_fused, compact_values, compact_values_fused,
    exclusive_scan, reduce, segmented_reduce, LOOKBACK_CYCLES, SHUFFLE_CYCLES,
};
use crate::profiler::{KernelRecord, KernelSummary, Profiler};
use crate::ProfileReport;

fn dev() -> Device {
    Device::new(DeviceConfig::test_tiny())
}

/// The fold `Profiler::report` ran over its per-launch log before the
/// profiler kept running per-kernel totals: the reference the running
/// totals must match bit for bit.
fn fold_launch_log(log: &[KernelRecord]) -> BTreeMap<String, KernelSummary> {
    let mut by_kernel: BTreeMap<String, KernelSummary> = BTreeMap::new();
    for r in log {
        let e = by_kernel.entry(r.name.to_string()).or_default();
        e.launches += 1;
        e.total_threads += r.threads;
        e.total_cycles += r.cost.total_cycles;
        e.total_bytes += r.bytes;
        e.total_atomics += r.atomics;
        if r.cost.total_cycles > e.max_launch_cycles {
            e.max_launch_cycles = r.cost.total_cycles;
            e.dominant_bound = r.cost.bound_by();
        }
    }
    by_kernel
}

/// A launch of kernel `NAMES[name]` with the given threads, bytes and
/// atomics. The cost terms (overhead, compute, memory, atomic, critical
/// path) are in tenths of a cycle, so `f64` sums depend on their order.
fn launch_of(
    name: usize,
    (threads, bytes, atomics): (u64, u64, u64),
    terms: (u32, u32, u32, u32, u32),
) -> KernelRecord {
    const NAMES: [&str; 4] = [
        "prop::select",
        "prop::commit",
        "prop::compact",
        "prop::scan",
    ];
    let [overhead, compute, memory, atomic, critical] =
        [terms.0, terms.1, terms.2, terms.3, terms.4].map(|x| f64::from(x) / 10.0);
    KernelRecord {
        name: NAMES[name],
        threads,
        bytes,
        atomics,
        cost: KernelCost {
            launch_overhead: overhead,
            compute_term: compute,
            memory_term: memory,
            atomic_term: atomic,
            critical_path: critical,
            total_cycles: overhead + compute.max(memory).max(atomic).max(critical),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reduce_sum_matches_host(data in proptest::collection::vec(0u32..1000, 0..300)) {
        let d = dev();
        let buf = DeviceBuffer::from_slice(&data);
        let got = reduce(&d, "sum", &buf, 0u32, |a, b| a.wrapping_add(b));
        let want = data.iter().fold(0u32, |a, &b| a.wrapping_add(b));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn reduce_max_matches_host(data in proptest::collection::vec(any::<i32>(), 1..300)) {
        let d = dev();
        let buf = DeviceBuffer::from_slice(&data);
        let got = reduce(&d, "max", &buf, i32::MIN, i32::max);
        prop_assert_eq!(got, *data.iter().max().unwrap());
    }

    #[test]
    fn scan_matches_host(data in proptest::collection::vec(0u32..100, 0..300)) {
        let d = dev();
        let buf = DeviceBuffer::from_slice(&data);
        let (offsets, total) = exclusive_scan(&d, "scan", &buf);
        let got = offsets.to_vec();
        let mut acc = 0u64;
        for i in 0..data.len() {
            prop_assert_eq!(got[i] as u64, acc);
            acc += data[i] as u64;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn compact_matches_host_filter(
        pairs in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..300)
    ) {
        let d = dev();
        let values: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let flags: Vec<u8> = pairs.iter().map(|p| p.1 as u8).collect();
        let out = compact(
            &d,
            "f",
            &DeviceBuffer::from_slice(&values),
            &DeviceBuffer::from_slice(&flags),
        );
        let want: Vec<u32> = pairs.iter().filter(|p| p.1).map(|p| p.0).collect();
        prop_assert_eq!(out.to_vec(), want);
    }

    #[test]
    fn segmented_reduce_matches_host(
        seg_lens in proptest::collection::vec(0usize..20, 1..40),
        seed in any::<u64>(),
    ) {
        let d = dev();
        let mut offsets = vec![0usize];
        for &l in &seg_lens {
            offsets.push(offsets.last().unwrap() + l);
        }
        let n = *offsets.last().unwrap();
        let values: Vec<u32> =
            (0..n).map(|i| crate::rng::uniform_u32(seed, i as u32) % 1000).collect();
        let buf = DeviceBuffer::from_slice(&values);
        let got = segmented_reduce(&d, "seg", &buf, &offsets, 0u32, u32::max);
        let want: Vec<u32> = offsets
            .windows(2)
            .map(|w| values[w[0]..w[1]].iter().copied().max().unwrap_or(0))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn profiler_totals_match_the_per_launch_fold(
        steps in proptest::collection::vec(
            (0u8..6, 0usize..4, (0u64..5000, 0u64..100_000, 0u64..500), (0u32..40, 0u32..60, 0u32..60, 0u32..60, 0u32..60)),
            0..120,
        ),
        reset_at in 0usize..120,
    ) {
        // Feeds the same launches to a profiler and to a log of what the
        // profiler bills, resetting both once partway through. A step with
        // `op == 0` opens a replay if none is open and closes it
        // otherwise; every other step is a launch.
        let mut p = Profiler::new();
        let mut log: Vec<KernelRecord> = Vec::new();
        let (mut in_replay, mut dispatches, mut replay_kernels) = (false, 0u64, 0u64);
        for (i, &(op, name, sizes, terms)) in steps.iter().enumerate() {
            if i == reset_at {
                if in_replay {
                    p.end_replay(75.0);
                    in_replay = false;
                }
                p.reset();
                log.clear();
                (dispatches, replay_kernels) = (0, 0);
            }
            if op == 0 {
                if in_replay {
                    p.end_replay(75.0);
                    dispatches += 1;
                } else {
                    p.begin_replay();
                }
                in_replay = !in_replay;
                continue;
            }
            let launch = launch_of(name, sizes, terms);
            let mut billed = launch.clone();
            if in_replay {
                // A replayed kernel bills its work but not its overhead.
                billed.cost.total_cycles -= billed.cost.launch_overhead;
                billed.cost.launch_overhead = 0.0;
                replay_kernels += 1;
            } else {
                dispatches += 1;
            }
            log.push(billed);
            p.record_kernel(launch);
        }
        if in_replay {
            p.end_replay(75.0);
            dispatches += 1;
        }

        let r = p.report();
        prop_assert_eq!(r.launches, dispatches);
        prop_assert_eq!(r.graph_kernels, replay_kernels);
        prop_assert_eq!(r.thread_executions, log.iter().map(|l| l.threads).sum::<u64>());
        prop_assert_eq!(r.kernel_bytes, log.iter().map(|l| l.bytes).sum::<u64>());
        prop_assert_eq!(r.kernel_atomics, log.iter().map(|l| l.atomics).sum::<u64>());
        let want = fold_launch_log(&log);
        prop_assert_eq!(
            r.by_kernel.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        );
        for (name, w) in &want {
            let got = &r.by_kernel[name];
            prop_assert_eq!(got.launches, w.launches, "{} launches", name);
            prop_assert_eq!(got.total_threads, w.total_threads, "{} threads", name);
            prop_assert_eq!(got.total_bytes, w.total_bytes, "{} bytes", name);
            prop_assert_eq!(got.total_atomics, w.total_atomics, "{} atomics", name);
            prop_assert_eq!(
                got.total_cycles.to_bits(),
                w.total_cycles.to_bits(),
                "{} cycles {} vs {}", name, got.total_cycles, w.total_cycles
            );
            prop_assert_eq!(
                got.max_launch_cycles.to_bits(),
                w.max_launch_cycles.to_bits(),
                "{} max launch cycles", name
            );
            prop_assert_eq!(got.dominant_bound, w.dominant_bound, "{} bound", name);
        }
    }

    #[test]
    fn launch_writes_every_index(n in 0usize..2000) {
        let d = dev();
        let out = DeviceBuffer::<u32>::zeroed(n);
        d.launch("fill", n, |t| {
            let tid = t.tid();
            t.write(&out, tid, 1);
        });
        prop_assert!(out.to_vec().iter().all(|&x| x == 1));
    }

    #[test]
    fn fused_compaction_equals_two_kernel_compaction(
        keep in proptest::collection::vec(any::<bool>(), 0..400)
    ) {
        // `compact_indices_fused` must honor the same sorted-permutation
        // contract as the two-kernel `compact_indices`: identical
        // survivor sets, identical (ascending) order — only launches
        // differ (1 vs up to 3).
        let flags_vec: Vec<u8> = keep.iter().map(|&k| k as u8).collect();
        let n = keep.len();
        let d_fused = dev();
        let flags = DeviceBuffer::from_slice(&flags_vec);
        let fused = compact_indices_fused(&d_fused, "cf", n, |t, i| t.read(&flags, i) != 0);
        let d_plain = dev();
        let plain = compact_indices(&d_plain, "ci", n, |t, i| t.read(&flags, i) != 0);
        prop_assert_eq!(fused.to_vec(), plain.to_vec());
        prop_assert!(d_fused.profile().launches <= d_plain.profile().launches);
    }

    #[test]
    fn fused_values_compaction_equals_two_kernel(
        values in proptest::collection::vec(0u32..50, 0..300)
    ) {
        let d_fused = dev();
        let vals = DeviceBuffer::from_slice(&values);
        let fused = compact_values_fused(&d_fused, "cvf", &vals, |_, v| v % 3 != 0);
        let d_plain = dev();
        let plain = compact_values(&d_plain, "cv", &vals, |_, v| v % 3 != 0);
        prop_assert_eq!(fused.to_vec(), plain.to_vec());
    }

    #[test]
    fn fused_compaction_matches_host_ranked_reference(
        values in proptest::collection::vec(0u32..1000, 0..1500),
        tiny in any::<bool>(),
    ) {
        // The one-pass fused compaction against the algorithm it
        // replaced: survivor ranks computed on the host first, then one
        // plain launch that evaluates the predicate and writes each
        // survivor at its global rank. Output and bill must agree. The
        // extents cover partial warps and, on the tiny config (8-thread
        // blocks), up to ~190 blocks.
        let cfg = if tiny { DeviceConfig::test_tiny() } else { DeviceConfig::k40c() };
        let pred = |t: &mut crate::ThreadCtx, v: u32| {
            t.charge(u64::from(v % 7));
            !v.is_multiple_of(3)
        };
        let fused = {
            let d = Device::new(cfg);
            let vals = DeviceBuffer::from_slice(&values);
            let out = compact_values_fused(&d, "c", &vals, pred);
            (out.to_vec(), d.profile())
        };
        let reference = {
            let d = Device::new(cfg);
            let vals = DeviceBuffer::from_slice(&values);
            let mut ranks = Vec::with_capacity(values.len());
            let mut total = 0usize;
            for &v in &values {
                ranks.push(total);
                total += usize::from(!v.is_multiple_of(3));
            }
            let out = DeviceBuffer::<u32>::zeroed(total);
            d.launch("c", values.len(), |t| {
                let i = t.tid();
                let v = t.read(&vals, i);
                let keep = pred(t, v);
                t.charge(SHUFFLE_CYCLES + LOOKBACK_CYCLES);
                if keep {
                    t.write(&out, ranks[i], v);
                }
            });
            (out.to_vec(), d.profile())
        };
        let bill = |r: &ProfileReport| {
            (r.launches, r.kernel_bytes, r.thread_executions, r.kernel_atomics, r.clock_cycles)
        };
        prop_assert_eq!(&fused.0, &reference.0);
        prop_assert_eq!(bill(&fused.1), bill(&reference.1));
    }

    #[test]
    fn replay_work_terms_match_uncaptured(
        extents in proptest::collection::vec(0usize..600, 1..8)
    ) {
        // Cost-model faithfulness of graph replay: a replayed pipeline
        // bills exactly the same per-kernel work as issuing the same
        // kernels uncaptured; the clocks differ by precisely
        // (k - 1) x launch_overhead_cycles, the fixed overhead the graph
        // amortizes. (A zero-extent kernel is pure overhead, so it still
        // counts toward k.)
        let cfg = DeviceConfig::test_tiny();
        let body = |d: &Device, bufs: &[DeviceBuffer<u32>]| {
            for (j, buf) in bufs.iter().enumerate() {
                d.launch("step", buf.len(), |t| {
                    let i = t.tid();
                    let v = t.read(buf, i);
                    t.write(buf, i, v.wrapping_add(1));
                    if i % 5 == j % 5 {
                        t.charge(9);
                    }
                });
            }
        };
        let mk_bufs = || -> Vec<DeviceBuffer<u32>> {
            extents.iter().map(|&n| DeviceBuffer::zeroed(n)).collect()
        };
        let (plain_cycles, plain_prof) = {
            let d = Device::new(cfg);
            let bufs = mk_bufs();
            body(&d, &bufs);
            (d.elapsed_cycles(), d.profile())
        };
        let (replay_cycles, replay_prof) = {
            let d = Device::new(cfg);
            let bufs = mk_bufs();
            let graph = d.capture("pipeline", || body(&d, &bufs));
            d.replay(&graph);
            (d.elapsed_cycles(), d.profile())
        };
        let k = extents.len() as f64;
        let overhead = cfg.launch_overhead_cycles as f64;
        prop_assert_eq!(plain_cycles - replay_cycles, (k - 1.0) * overhead);
        prop_assert_eq!(plain_prof.thread_executions, replay_prof.thread_executions);
        prop_assert_eq!(
            replay_prof.launch_overhead_saved_cycles,
            (k - 1.0) * overhead
        );
        // Per-kernel non-overhead terms are identical.
        let strip = |p: &crate::profiler::ProfileReport| {
            p.by_kernel["step"].total_cycles - p.by_kernel["step"].launches as f64 * overhead
        };
        let plain_work = strip(&plain_prof);
        let replay_work = replay_prof.by_kernel["step"].total_cycles;
        prop_assert_eq!(plain_work, replay_work);
    }

    #[test]
    fn model_clock_is_deterministic(n in 1usize..500) {
        let run = || {
            let d = dev();
            let buf = DeviceBuffer::<u32>::zeroed(n);
            d.launch("touch", n, |t| {
                let tid = t.tid();
                let v = t.read(&buf, tid);
                t.write(&buf, tid, v + 1);
            });
            d.elapsed_cycles()
        };
        prop_assert_eq!(run(), run());
    }
}
