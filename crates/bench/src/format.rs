//! Plain-text table rendering for the `repro` harness.

use crate::experiments::{
    geomean_color_ratio, geomean_speedup, Fig1Dataset, Fig2Point, Table1Row, Table2Row,
};
use crate::scale_sweep::{ScaleReport, ScaleRow};

fn hr(width: usize) -> String {
    "-".repeat(width)
}

/// Renders Table I with paper and measured columns side by side.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE I: Dataset Description (paper -> stand-in)\n");
    out.push_str(&format!(
        "{:<18}{:>5} | {:>12}{:>14}{:>9}{:>9} | {:>10}{:>12}{:>8}{:>7}\n",
        "Dataset",
        "Type",
        "Paper |V|",
        "Paper |E|",
        "PaperDeg",
        "PaperDia",
        "Gen |V|",
        "Gen |E|",
        "GenDeg",
        "GenDia"
    ));
    out.push_str(&hr(118));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<18}{:>5} | {:>12}{:>14}{:>9.2}{:>9} | {:>10}{:>12}{:>8.2}{:>7}\n",
            r.name,
            r.type_code,
            r.paper_vertices,
            r.paper_edges,
            r.paper_avg_degree,
            r.paper_diameter,
            r.stats.vertices,
            r.stats.edges,
            r.stats.degrees.avg,
            r.stats.diameter_estimate,
        ));
    }
    out
}

/// Renders Table II.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE II: Impact of Gunrock optimizations (G3_circuit stand-in)\n");
    out.push_str(&format!(
        "{:<36}{:>14}{:>10}{:>8}{:>11}{:>12}\n",
        "Optimization", "Model (ms)", "Speedup", "Colors", "Iters", "Paper (ms)"
    ));
    out.push_str(&hr(91));
    out.push('\n');
    for (i, r) in rows.iter().enumerate() {
        let speedup = if i == 0 {
            "—".to_string()
        } else {
            format!("{:.2}x", r.step_speedup)
        };
        out.push_str(&format!(
            "{:<36}{:>14.3}{:>10}{:>8}{:>11}{:>12.2}\n",
            r.optimization, r.model_ms, speedup, r.colors, r.iterations, r.paper_ms
        ));
    }
    out
}

/// Renders Figure 1a: per-dataset speedups vs Naumov/JPL.
pub fn render_fig1a(data: &[Fig1Dataset]) -> String {
    let impls: Vec<&str> = data
        .first()
        .map(|d| d.results.iter().map(|(n, _)| n.as_str()).collect())
        .unwrap_or_default();
    let mut out = String::new();
    out.push_str("FIGURE 1a: Speedup vs Naumov/Color_JPL (model time)\n");
    out.push_str(&format!("{:<18}", "Dataset"));
    for name in &impls {
        out.push_str(&format!("{:>12}", short(name)));
    }
    out.push('\n');
    out.push_str(&hr(18 + 12 * impls.len()));
    out.push('\n');
    for d in data {
        out.push_str(&format!("{:<18}", d.dataset));
        for name in &impls {
            out.push_str(&format!("{:>12.2}", d.speedup(name).unwrap_or(f64::NAN)));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "\ngeomean speedup Gunrock/Color_IS vs Naumov/Color_JPL: {:.2}x\n",
        geomean_speedup(data, "Gunrock/Color_IS")
    ));
    out
}

/// Renders Figure 1b: per-dataset color counts.
pub fn render_fig1b(data: &[Fig1Dataset]) -> String {
    let impls: Vec<&str> = data
        .first()
        .map(|d| d.results.iter().map(|(n, _)| n.as_str()).collect())
        .unwrap_or_default();
    let mut out = String::new();
    out.push_str("FIGURE 1b: Number of colors\n");
    out.push_str(&format!("{:<18}", "Dataset"));
    for name in &impls {
        out.push_str(&format!("{:>12}", short(name)));
    }
    out.push('\n');
    out.push_str(&hr(18 + 12 * impls.len()));
    out.push('\n');
    for d in data {
        out.push_str(&format!("{:<18}", d.dataset));
        for name in &impls {
            out.push_str(&format!("{:>12}", d.colors(name).unwrap_or(0)));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "\ngeomean color ratio Naumov/Color_JPL : GraphBLAST/Color_MIS = {:.2}x\n",
        geomean_color_ratio(data, "Naumov/Color_JPL", "GraphBLAST/Color_MIS")
    ));
    out.push_str(&format!(
        "geomean color ratio Naumov/Color_CC  : GraphBLAST/Color_MIS = {:.2}x\n",
        geomean_color_ratio(data, "Naumov/Color_CC", "GraphBLAST/Color_MIS")
    ));
    out.push_str(&format!(
        "geomean color ratio CPU/Color_Greedy : GraphBLAST/Color_MIS = {:.3}x\n",
        geomean_color_ratio(data, "CPU/Color_Greedy", "GraphBLAST/Color_MIS")
    ));
    out
}

/// Renders the Figure 2 scatter as a list (time, colors) per point.
pub fn render_fig2(points: &[Fig2Point]) -> String {
    let mut out = String::new();
    out.push_str("FIGURE 2: Number of colors vs runtime\n");
    out.push_str(&format!(
        "{:<18}{:<24}{:>14}{:>9}\n",
        "Dataset", "Implementation", "Model (ms)", "Colors"
    ));
    out.push_str(&hr(65));
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{:<18}{:<24}{:>14.3}{:>9}\n",
            p.dataset, p.implementation, p.model_ms, p.colors
        ));
    }
    out
}

/// The Figure 3 pairs of a scale sweep: per scale, the Gunrock and the
/// GraphBLAST IS rows (the sweep keeps each colorer's rows in ascending
/// scale order).
fn fig3_pairs(report: &ScaleReport) -> impl Iterator<Item = (&ScaleRow, &ScaleRow)> {
    let rows = |name| report.rows.iter().filter(move |r| r.colorer == name);
    rows("Gunrock/Color_IS").zip(rows("GraphBLAST/Color_IS"))
}

/// Renders Figure 3 (runtime and colors vs n and m) from a scale sweep.
pub fn render_fig3(report: &ScaleReport) -> String {
    let mut out = String::new();
    out.push_str("FIGURE 3: RGG scaling (Gunrock/Color_IS vs GraphBLAST/Color_IS)\n");
    out.push_str(&format!(
        "{:<7}{:>12}{:>13}{:>14}{:>14}{:>10}{:>10}\n",
        "Scale", "Vertices", "Edges", "Gunrock(ms)", "GrBLAST(ms)", "GrColors", "GbColors"
    ));
    out.push_str(&hr(80));
    out.push('\n');
    for (gr, gb) in fig3_pairs(report) {
        out.push_str(&format!(
            "{:<7}{:>12}{:>13}{:>14.3}{:>14.3}{:>10}{:>10}\n",
            gr.scale, gr.vertices, gr.edges, gr.model_ms, gb.model_ms, gr.colors, gb.colors
        ));
    }
    out
}

/// CSV emission for downstream plotting.
pub fn fig1_csv(data: &[Fig1Dataset]) -> String {
    let mut out = String::from("dataset,implementation,model_ms,colors,iterations,launches\n");
    for d in data {
        for (name, r) in &d.results {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                d.dataset, name, r.model_ms, r.num_colors, r.iterations, r.kernel_launches
            ));
        }
    }
    out
}

/// CSV for Figure 3, from a scale sweep.
pub fn fig3_csv(report: &ScaleReport) -> String {
    let mut out = String::from(
        "scale,vertices,edges,gunrock_ms,gunrock_colors,graphblast_ms,graphblast_colors\n",
    );
    for (gr, gb) in fig3_pairs(report) {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            gr.scale, gr.vertices, gr.edges, gr.model_ms, gr.colors, gb.model_ms, gb.colors
        ));
    }
    out
}

/// Renders the ablation studies.
pub fn render_ablations(
    hash: &[crate::experiments::HashSizeRow],
    weights: &[crate::experiments::WeightModeRow],
    lb: &[crate::experiments::LoadBalanceRow],
    extensions: &[(String, gc_core::ColoringResult)],
) -> String {
    let mut out = String::new();
    out.push_str("ABLATION A: Gunrock hash-table size (G3_circuit stand-in)\n");
    out.push_str(&format!(
        "{:<12}{:>14}{:>9}{:>9}\n",
        "Table size", "Model (ms)", "Colors", "Iters"
    ));
    out.push_str(&hr(44));
    out.push('\n');
    for r in hash {
        out.push_str(&format!(
            "{:<12}{:>14.3}{:>9}{:>9}\n",
            r.hash_size, r.model_ms, r.colors, r.iterations
        ));
    }
    out.push_str("\nABLATION B: IS priority mode (paper §VI hypothesis)\n");
    out.push_str(&format!(
        "{:<16}{:<24}{:>14}{:>9}{:>9}\n",
        "Graph", "Mode", "Model (ms)", "Colors", "Iters"
    ));
    out.push_str(&hr(72));
    out.push('\n');
    for r in weights {
        out.push_str(&format!(
            "{:<16}{:<24}{:>14.3}{:>9}{:>9}\n",
            r.graph, r.mode, r.model_ms, r.colors, r.iterations
        ));
    }
    out.push_str("\nABLATION C: IS load-balancing strategy (thread- vs warp-mapped)\n");
    out.push_str(&format!(
        "{:<16}{:<20}{:>14}{:>9}\n",
        "Dataset", "Strategy", "Model (ms)", "Colors"
    ));
    out.push_str(&hr(59));
    out.push('\n');
    for r in lb {
        out.push_str(&format!(
            "{:<16}{:<20}{:>14.3}{:>9}\n",
            r.dataset, r.strategy, r.model_ms, r.colors
        ));
    }
    out.push_str(
        "\nABLATION D: future-work extensions vs the paper's best (G3_circuit stand-in)\n",
    );
    out.push_str(&format!(
        "{:<26}{:>14}{:>9}{:>9}\n",
        "Implementation", "Model (ms)", "Colors", "Iters"
    ));
    out.push_str(&hr(58));
    out.push('\n');
    for (name, r) in extensions {
        out.push_str(&format!(
            "{:<26}{:>14.3}{:>9}{:>9}\n",
            name, r.model_ms, r.num_colors, r.iterations
        ));
    }
    out
}

/// Renders the power-law extension study.
pub fn render_powerlaw(rows: &[crate::experiments::PowerLawRow]) -> String {
    let mut out = String::new();
    out.push_str("EXTENSION: full registry on a Barabasi-Albert power-law graph\n");
    out.push_str(&format!(
        "{:<26}{:>14}{:>9}{:>9}\n",
        "Implementation", "Model (ms)", "Colors", "Iters"
    ));
    out.push_str(&hr(58));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<26}{:>14.3}{:>9}{:>9}\n",
            r.implementation, r.model_ms, r.colors, r.iterations
        ));
    }
    out
}

/// Renders the cross-device ablation.
pub fn render_devices(rows: &[crate::experiments::DeviceRow]) -> String {
    let mut out = String::new();
    out.push_str("ABLATION E: device sensitivity (K40c vs V100 model)\n");
    out.push_str(&format!(
        "{:<8}{:<24}{:>14}{:>9}\n",
        "Device", "Implementation", "Model (ms)", "Colors"
    ));
    out.push_str(&hr(55));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<8}{:<24}{:>14.3}{:>9}\n",
            r.device, r.implementation, r.model_ms, r.colors
        ));
    }
    out
}

/// Renders the `repro bench` before/after compaction matrix, plus the
/// multi-device sharding matrix when the report carries sharded rows.
pub fn render_coloring_bench(report: &crate::coloring_bench::BenchReport) -> String {
    let mut out = String::new();
    out.push_str("BENCH: frontier compaction before/after (full colorer matrix)\n");
    out.push_str(&format!(
        "{:<16}{:<12}{:>14}{:>14}{:>8}{:>13}{:>13}{:>6}\n",
        "Dataset",
        "Colorer",
        "ThreadEx(b)",
        "ThreadEx(a)",
        "Work/x",
        "Model(b)ms",
        "Model(a)ms",
        "Same"
    ));
    out.push_str(&hr(96));
    out.push('\n');
    for r in report.rows.iter().filter(|r| r.devices == 1) {
        let ratio = if r.after.thread_executions == 0 {
            "—".to_string()
        } else {
            format!(
                "{:.2}x",
                r.before.thread_executions as f64 / r.after.thread_executions as f64
            )
        };
        out.push_str(&format!(
            "{:<16}{:<12}{:>14}{:>14}{:>8}{:>13.3}{:>13.3}{:>6}\n",
            r.dataset,
            short(&r.colorer),
            r.before.thread_executions,
            r.after.thread_executions,
            ratio,
            r.before.model_ms,
            r.after.model_ms,
            if r.identical_coloring { "yes" } else { "NO" }
        ));
    }
    let sharded: Vec<_> = report.rows.iter().filter(|r| r.devices > 1).collect();
    if !sharded.is_empty() {
        out.push_str("\nBENCH: multi-device sharding (ThreadEx(max) is the per-device max)\n");
        out.push_str(&format!(
            "{:<16}{:<12}{:>4}{:>14}{:>14}{:>8}{:>12}{:>10}{:>7}{:>6}{:>8}{:>8}\n",
            "Dataset",
            "Colorer",
            "Dev",
            "ThreadEx(1)",
            "ThreadEx(max)",
            "Work/x",
            "HaloBytes",
            "Delta",
            "Eff",
            "Ovl",
            "Rounds",
            "Proper"
        ));
        out.push_str(&hr(119));
        out.push('\n');
        for r in sharded {
            let ratio = if r.after.thread_executions == 0 {
                "—".to_string()
            } else {
                format!(
                    "{:.2}x",
                    r.before.thread_executions as f64 / r.after.thread_executions as f64
                )
            };
            out.push_str(&format!(
                "{:<16}{:<12}{:>4}{:>14}{:>14}{:>8}{:>12}{:>10}{:>7}{:>6}{:>8}{:>8}\n",
                r.dataset,
                short(&r.colorer),
                r.devices,
                r.before.thread_executions,
                r.after.thread_executions,
                ratio,
                r.halo_bytes,
                r.halo_bytes_delta,
                format!("{:.2}x", r.sharded_efficiency),
                format!("{:.2}", r.overlap_ratio),
                r.conflict_rounds,
                if r.verified { "yes" } else { "NO" }
            ));
        }
    }
    if !report.pareto.is_empty() {
        out.push_str(
            "\nBENCH: quality tier (colors vs model time; +reduce arms include the post-pass)\n",
        );
        out.push_str(&format!(
            "{:<16}{:<24}{:>8}{:>12}{:>14}{:>7}{:>8}{:>7}{:>8}\n",
            "Dataset",
            "Colorer",
            "Colors",
            "Model ms",
            "ThreadEx",
            "Iters",
            "Before",
            "After",
            "Passes"
        ));
        out.push_str(&hr(104));
        out.push('\n');
        for p in &report.pareto {
            out.push_str(&format!(
                "{:<16}{:<24}{:>8}{:>12.3}{:>14}{:>7}{:>8}{:>7}{:>8}\n",
                p.dataset,
                p.colorer,
                p.colors,
                p.model_ms,
                p.thread_executions,
                p.iterations,
                p.colors_before,
                p.colors_after,
                p.reduction_passes
            ));
        }
    }
    out
}

/// Renders the `repro scale-sweep` RGG scaling table (Figure 4's shape:
/// model time and throughput per colorer as the family doubles).
pub fn render_scale_sweep(report: &crate::scale_sweep::ScaleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "SCALE-SWEEP: rgg_n_2_{{{}..{}}}_s0 on K40c devices (seed {})\n",
        report.min_scale, report.max_scale, report.seed
    ));
    out.push_str(&format!(
        "{:<20}{:>6}{:>11}{:>12}{:>8}{:>12}{:>11}{:>10}{:>8}\n",
        "Colorer", "Scale", "Vertices", "Edges", "Colors", "Model ms", "Wall ms", "MTEPS", "Proper"
    ));
    out.push_str(&hr(98));
    out.push('\n');
    for r in &report.rows {
        out.push_str(&format!(
            "{:<20}{:>6}{:>11}{:>12}{:>8}{:>12.3}{:>11.1}{:>10.2}{:>8}\n",
            short(&r.colorer),
            r.scale,
            r.vertices,
            r.edges,
            r.colors,
            r.model_ms,
            r.wall_ms,
            r.model_mteps,
            if r.verified { "yes" } else { "NO" }
        ));
    }
    out
}

/// Renders the `repro trace` per-span-name summary table.
pub fn render_trace_summary(cap: &crate::trace::TraceCapture) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "TRACE: {} on {} ({} vertices, {} edges) — {} colors, {} iterations, {:.3} model-ms\n",
        cap.colorer,
        cap.dataset,
        cap.vertices,
        cap.edges,
        cap.num_colors,
        cap.iterations,
        cap.model_ms
    ));
    out.push_str(&format!(
        "{:<32}{:>8}{:>14}{:>14}\n",
        "Span", "Count", "Wall (µs)", "Model (ms)"
    ));
    out.push_str(&hr(68));
    out.push('\n');
    for (name, count, wall_us, model_ms) in &cap.summary {
        out.push_str(&format!(
            "{:<32}{:>8}{:>14}{:>14.3}\n",
            name, count, wall_us, model_ms
        ));
    }
    out
}

fn short(name: &str) -> String {
    name.replace("GraphBLAST/Color_", "GB/")
        .replace("Gunrock/Color_", "GR/")
        .replace("Naumov/Color_", "NV/")
        .replace("CPU/Color_", "CPU/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig1_dataset, fig2, table1, table2, ExperimentConfig};
    use crate::scale_sweep::scale_sweep;

    #[test]
    fn renderers_produce_nonempty_output() {
        let cfg = ExperimentConfig::smoke();
        let t1 = render_table1(&table1(&cfg));
        assert!(t1.contains("af_shell3"));
        let t2 = render_table2(&table2(&cfg));
        assert!(t2.contains("Min-Max Independent Set"));
        let spec = gc_datasets::dataset_by_name("ecology2").unwrap();
        let data = vec![fig1_dataset(&spec, &cfg)];
        assert!(render_fig1a(&data).contains("geomean"));
        assert!(render_fig1b(&data).contains("GB/MIS"));
        assert!(render_fig2(&fig2(&data)).contains("ecology2"));
        let sweep = scale_sweep(cfg.rgg_min, cfg.rgg_max, cfg.seed);
        assert!(render_fig3(&sweep).contains("Scale"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let cfg = ExperimentConfig::smoke();
        let spec = gc_datasets::dataset_by_name("ecology2").unwrap();
        let data = vec![fig1_dataset(&spec, &cfg)];
        let csv = fig1_csv(&data);
        assert!(csv.starts_with("dataset,"));
        assert_eq!(csv.lines().count(), 1 + 9);
        let f3 = fig3_csv(&scale_sweep(cfg.rgg_min, cfg.rgg_max, cfg.seed));
        assert_eq!(f3.lines().count(), 1 + 3);
    }
}
