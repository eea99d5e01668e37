//! Cross-crate checks of the virtual-GPU substrate's behavioral
//! contracts: concurrency isolation, memory-model billing, and the
//! Matrix Market path through the full registry.

use std::io::{BufReader, BufWriter};

use gc_core::runner::all_colorers;
use gc_graph::generators::{erdos_renyi, rgg};
use gc_graph::mtx::{read_mtx, write_mtx};
use gc_integration::check_proper;
use gc_vgpu::{Device, DeviceBuffer, DeviceConfig};

#[test]
fn independent_devices_do_not_interfere() {
    // Two colorings on two devices driven from concurrent host threads
    // must match the single-threaded results exactly (devices share the
    // rayon pool but nothing else).
    let g = erdos_renyi(300, 0.03, 5);
    let expected = gc_core::gunrock_is::gunrock_is(&g, 9, Default::default());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let g = g.clone();
            std::thread::spawn(move || gc_core::gunrock_is::gunrock_is(&g, 9, Default::default()))
        })
        .collect();
    for h in handles {
        let r = h.join().expect("thread panicked");
        assert_eq!(r.coloring, expected.coloring);
        assert_eq!(r.model_ms, expected.model_ms);
    }
}

#[test]
fn coalesced_kernels_bill_less_than_scattered() {
    // End-to-end memory-model check: a kernel whose warps touch
    // consecutive addresses must move fewer billed bytes than one
    // striding randomly over the same number of elements.
    let n = 1 << 14;
    let run = |scattered: bool| {
        let dev = Device::new(DeviceConfig::k40c());
        let buf = DeviceBuffer::<u32>::zeroed(n);
        dev.launch("probe", n, |t| {
            let i = t.tid();
            let idx = if scattered { (i * 7919 + 13) % n } else { i };
            let v = t.read(&buf, idx);
            std::hint::black_box(v);
        });
        dev.profile().by_kernel["probe"].total_bytes
    };
    let seq = run(false);
    let scat = run(true);
    assert!(
        scat >= 4 * seq,
        "scattered ({scat} B) should dwarf coalesced ({seq} B)"
    );
}

#[test]
fn mtx_roundtrip_through_every_colorer() {
    // Write a graph to Matrix Market, read it back, and verify the full
    // registry still produces identical colorings — the real-dataset
    // path of the mtx_coloring example.
    let g = rgg(600, 0.06, 3);
    let mut bytes = Vec::new();
    write_mtx(&g, BufWriter::new(&mut bytes)).expect("serialize");
    let h = read_mtx(BufReader::new(bytes.as_slice())).expect("parse");
    assert_eq!(g, h);
    for c in all_colorers() {
        let a = c.run(&g, 17);
        let b = c.run(&h, 17);
        check_proper(c.name(), &h, b.coloring.as_slice());
        assert_eq!(
            a.coloring,
            b.coloring,
            "{} differs after mtx round trip",
            c.name()
        );
    }
}

#[test]
fn profiler_accounts_for_every_launch() {
    let dev = Device::new(DeviceConfig::test_tiny());
    let g = erdos_renyi(200, 0.03, 2);
    let r = gc_core::gblas_is::run_on(&dev, &g, 4, false);
    let profile = dev.profile();
    assert_eq!(profile.launches, r.kernel_launches);
    // The sum of per-kernel cycles can't exceed the clock (syncs and
    // memcpys add more).
    let kernel_cycles: f64 = profile.by_kernel.values().map(|s| s.total_cycles).sum();
    assert!(kernel_cycles <= profile.clock_cycles + 1e-6);
    assert!(
        profile.memcpys > 0,
        "per-iteration reduce readbacks must be billed"
    );
}

#[test]
fn chromatic_schedule_statistics_are_consistent() {
    let g = gc_graph::generators::grid2d(24, 24, gc_graph::generators::Stencil2d::NinePoint);
    let r = gc_core::gblas_mis::gblas_mis(&g, 6);
    let (min, max, mean) = r.coloring.class_size_stats();
    assert!(min >= 1);
    assert!(max <= g.num_vertices());
    let total: usize = r
        .coloring
        .color_classes()
        .iter()
        .map(|(_, c)| c.len())
        .sum();
    assert_eq!(total, g.num_vertices());
    assert!((mean * r.num_colors as f64 - g.num_vertices() as f64).abs() < 1e-6);
}
