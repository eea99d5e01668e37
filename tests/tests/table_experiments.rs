//! End-to-end checks of the Table I / Table II / Figure 3 harness paths.

use gc_bench::experiments::{self, ExperimentConfig};
use gc_bench::scale_sweep::{scale_sweep, ScaleReport, ScaleRow};

#[test]
fn table1_columns_match_spec_shape() {
    let cfg = ExperimentConfig::smoke();
    let rows = experiments::table1(&cfg);
    assert_eq!(rows.len(), 12);
    for r in &rows {
        // Scaled-down stand-ins, not the paper sizes.
        assert!(r.stats.vertices < r.paper_vertices);
        // Degree within a reasonable factor of the paper column.
        let ratio = r.stats.degrees.avg / r.paper_avg_degree;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{}: degree ratio {ratio:.2}",
            r.name
        );
        // Diameter estimate present for connected-ish meshes.
        assert!(
            r.stats.diameter_estimate > 0 || r.stats.edges == 0,
            "{}",
            r.name
        );
    }
}

#[test]
fn table2_reproduces_the_optimization_ladder() {
    let cfg = ExperimentConfig::smoke();
    let rows = experiments::table2(&cfg);
    let names: Vec<_> = rows.iter().map(|r| r.optimization).collect();
    assert_eq!(
        names,
        vec![
            "Baseline (Advance-Reduce)",
            "Hash Color",
            "Independent Set with Atomics",
            "Independent Set without Atomics",
            "Min-Max Independent Set",
        ]
    );
    // Paper shape: AR >> Hash > IS+at > IS-at > MinMax.
    assert!(
        rows[0].model_ms > rows[1].model_ms,
        "AR should dominate Hash"
    );
    assert!(rows[2].model_ms > rows[3].model_ms, "atomics should cost");
    assert!(rows[3].model_ms > rows[4].model_ms, "min-max should win");
    // The largest single step is the AR -> Hash jump, as in the paper
    // (38x there).
    let steps: Vec<f64> = rows[1..].iter().map(|r| r.step_speedup).collect();
    let max_step = steps.iter().cloned().fold(0.0, f64::max);
    assert_eq!(
        steps[0], max_step,
        "AR->Hash should be the biggest jump: {steps:?}"
    );
}

/// One colorer's rows of a scale sweep, in ascending scale order.
fn sweep_rows<'a>(report: &'a ScaleReport, colorer: &str) -> Vec<&'a ScaleRow> {
    report
        .rows
        .iter()
        .filter(|r| r.colorer == colorer)
        .collect()
}

#[test]
fn fig3_runtime_grows_and_colors_stay_flat() {
    // The sweep has to reach scale 14: below ~16k vertices Gunrock's
    // model time is still launch-overhead-bound, so the growth from the
    // smallest scale sits right at the 2x threshold.
    let sweep = scale_sweep(8, 14, ExperimentConfig::smoke().seed);
    for colorer in ["Gunrock/Color_IS", "GraphBLAST/Color_IS"] {
        let rows = sweep_rows(&sweep, colorer);
        assert_eq!(rows.len(), 7);
        // Runtime grows steeply with graph size...
        assert!(rows[6].model_ms > rows[0].model_ms * 2.0, "{colorer}");
        // ...while color counts move slowly (paper Fig 3c/3d: 20-45 band
        // across three orders of magnitude).
        for r in &rows {
            assert!(
                r.colors < 64,
                "{colorer} scale {}: {} colors",
                r.scale,
                r.colors
            );
        }
    }
}

#[test]
fn fig3_gunrock_wins_small_scales() {
    // §V.E: "Gunrock does better for smaller graphs, which indicates
    // that it has lower overhead."
    let sweep = scale_sweep(8, 9, ExperimentConfig::smoke().seed);
    let gunrock = sweep_rows(&sweep, "Gunrock/Color_IS");
    let graphblast = sweep_rows(&sweep, "GraphBLAST/Color_IS");
    assert_eq!(gunrock.len(), 2);
    for (gr, gb) in gunrock.iter().zip(&graphblast) {
        assert!(
            gr.model_ms < gb.model_ms,
            "scale {}: gunrock {} vs graphblast {}",
            gr.scale,
            gr.model_ms,
            gb.model_ms
        );
    }
}

#[test]
fn rgg_average_degree_grows_with_scale_like_table1() {
    use gc_graph::generators::rgg_scale;
    let d_lo = rgg_scale(10, 42).avg_degree();
    let d_hi = rgg_scale(13, 42).avg_degree();
    assert!(
        d_hi > d_lo,
        "Table I RGG degrees grow with scale: {d_lo:.2} vs {d_hi:.2}"
    );
}
