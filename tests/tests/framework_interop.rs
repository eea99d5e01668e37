//! Cross-framework interoperation: the two abstractions agree where the
//! paper says they implement the same algorithm.

use gc_core::gblas_is::gblas_is;
use gc_core::gblas_mis::maximal_independent_set;
use gc_core::gunrock_is::{gunrock_is, IsConfig};
use gc_graph::generators::{erdos_renyi, grid2d, Stencil2d};
use gc_integration::check_proper;

#[test]
fn both_frameworks_run_luby_to_proper_colorings() {
    let g = erdos_renyi(300, 0.03, 5);
    let gunrock = gunrock_is(&g, 9, IsConfig::single_set_no_atomics());
    let graphblast = gblas_is(&g, 9);
    check_proper("gunrock", &g, gunrock.coloring.as_slice());
    check_proper("graphblast", &g, graphblast.coloring.as_slice());
}

#[test]
fn luby_color_counts_agree_across_frameworks() {
    // Same algorithm (one-shot Luby IS, one color per iteration), same
    // family of random weights: color counts should land close even
    // though the weight encodings differ (u64 vs i64).
    let g = grid2d(20, 20, Stencil2d::NinePoint);
    let gunrock = gunrock_is(&g, 4, IsConfig::single_set_no_atomics());
    let graphblast = gblas_is(&g, 4);
    let (a, b) = (gunrock.num_colors as f64, graphblast.num_colors as f64);
    assert!(
        (a - b).abs() <= a.max(b) * 0.5,
        "frameworks disagree wildly: gunrock {a} vs graphblast {b}"
    );
}

#[test]
fn graphblas_mis_members_satisfy_gunrock_verification() {
    // The MIS found via the linear-algebra path must also verify as an
    // IS under direct host adjacency checks.
    let g = erdos_renyi(400, 0.02, 8);
    let mis = maximal_independent_set(&g, 21);
    for (u, v) in g.edges() {
        assert!(!(mis[u as usize] && mis[v as usize]));
    }
    let count = mis.iter().filter(|&&b| b).count();
    assert!(count > 0);
}

#[test]
fn device_profile_explains_framework_gap() {
    // GraphBLAST IS issues more kernel launches per color than the
    // hardwired-ish Gunrock compute-op loop; the profiler should show
    // it on the paper-verbatim full-width arms (the default compacted
    // paths fuse both frameworks down to two kernels per iteration
    // inside one replayed launch graph, erasing exactly this gap).
    use gc_vgpu::Device;
    let g = grid2d(16, 16, Stencil2d::FivePoint);
    let gr = gc_core::gunrock_is::run_on_full(&Device::k40c(), &g, 2, IsConfig::min_max());
    let gb = gc_core::gblas_is::run_on_full(&Device::k40c(), &g, 2);
    let gr_per_iter = gr.kernel_launches as f64 / gr.iterations as f64;
    let gb_per_iter = gb.kernel_launches as f64 / gb.iterations as f64;
    assert!(
        gb_per_iter > gr_per_iter,
        "GraphBLAST {gb_per_iter:.1} launches/iter vs Gunrock {gr_per_iter:.1}"
    );
}

#[test]
fn captured_pipelines_erase_the_dispatch_gap() {
    // The flip side: with per-iteration launch graphs, both frameworks
    // pay one dispatch per iteration regardless of how many kernels the
    // abstraction layers below emit.
    let g = grid2d(16, 16, Stencil2d::FivePoint);
    let gr = gunrock_is(&g, 2, IsConfig::min_max());
    let gb = gblas_is(&g, 2);
    for r in [&gr, &gb] {
        let p = r.profile.as_ref().unwrap();
        assert_eq!(p.graph_replays, r.iterations as u64);
        assert!(r.kernel_launches <= r.iterations as u64 + 3);
    }
}

#[test]
fn profiler_reports_vxm_dominates_mis() {
    // §V.C: "a second call to GrB_vxm ends up taking nearly 50% of the
    // runtime" for MIS — on the paper's million-scale inputs, profiling
    // the paper's verbatim transcription (today's full-width baseline;
    // the default compacted path exists precisely to shrink this very
    // vxm cost). At test scale, fixed launch overhead still eats a
    // share, so assert both a solid floor and that the fraction grows
    // toward the paper's figure as the graph grows.
    use gc_vgpu::Device;
    let frac = |n: usize, p: f64| {
        let dev = Device::k40c();
        let g = erdos_renyi(n, p, 3);
        let _ = gc_core::gblas_mis::run_on_full(&dev, &g, 5);
        dev.profile().time_fraction("vxm")
    };
    let small = frac(2_000, 0.01);
    let large = frac(8_000, 0.004);
    assert!(
        large > 0.25,
        "vxm should be a dominant cost of MIS at scale, got {:.0}%",
        large * 100.0
    );
    assert!(
        large > small,
        "vxm share should grow with graph size: {small:.2} -> {large:.2}"
    );
}
