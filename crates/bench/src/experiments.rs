//! One runner per paper exhibit.

use gc_core::runner::{all_colorers, table2_variants};
use gc_core::ColoringResult;
use gc_datasets::{table1_real_world, DatasetSpec, DEFAULT_SCALE};
use gc_graph::stats::GraphStats;
use gc_graph::Csr;

/// Shared experiment knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Fraction of each dataset's paper vertex count to synthesize.
    pub scale: f64,
    /// RNG seed for synthesis and coloring.
    pub seed: u64,
    /// Inclusive RGG scale range of the Figure 3 scale sweep.
    pub rgg_min: u32,
    pub rgg_max: u32,
    /// BFS sources for the Table I diameter estimate (the paper used
    /// 10,000; the default here keeps the harness interactive).
    pub diameter_samples: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: DEFAULT_SCALE,
            seed: 42,
            rgg_min: 10,
            rgg_max: 15,
            diameter_samples: 32,
        }
    }
}

impl ExperimentConfig {
    /// The paper's full extents (big: hours of simulation).
    pub fn full() -> Self {
        ExperimentConfig {
            scale: 1.0,
            seed: 42,
            rgg_min: 15,
            rgg_max: 24,
            diameter_samples: 10_000,
        }
    }

    /// Tiny configuration used by tests.
    pub fn smoke() -> Self {
        ExperimentConfig {
            scale: gc_datasets::TEST_SCALE,
            seed: 42,
            rgg_min: 8,
            rgg_max: 10,
            diameter_samples: 8,
        }
    }
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// One row of the regenerated Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub name: String,
    pub type_code: &'static str,
    pub paper_vertices: usize,
    pub paper_edges: usize,
    pub paper_avg_degree: f64,
    pub paper_diameter: &'static str,
    pub stats: GraphStats,
}

/// Regenerates Table I: synthesizes every stand-in and measures the same
/// columns the paper reports.
pub fn table1(cfg: &ExperimentConfig) -> Vec<Table1Row> {
    table1_real_world()
        .into_iter()
        .map(|d| {
            let g = d.generate(cfg.scale, cfg.seed);
            Table1Row {
                name: d.name.to_string(),
                type_code: d.graph_type.code(),
                paper_vertices: d.paper_vertices,
                paper_edges: d.paper_edges,
                paper_avg_degree: d.paper_avg_degree,
                paper_diameter: d.paper_diameter,
                stats: GraphStats::measure(&g, cfg.diameter_samples),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------

/// One row of the regenerated Table II.
#[derive(Clone, Debug)]
pub struct Table2Row {
    pub optimization: &'static str,
    pub model_ms: f64,
    pub colors: u32,
    pub iterations: u32,
    /// Speedup over the previous row (the paper's incremental column).
    pub step_speedup: f64,
    /// Paper's reported milliseconds for reference.
    pub paper_ms: f64,
}

/// Paper Table II reference times (ms) on G3_circuit.
pub const TABLE2_PAPER_MS: [f64; 5] = [656.0, 17.21, 13.67, 11.15, 6.68];

/// Regenerates Table II: the Gunrock optimization ladder on the
/// G3_circuit stand-in.
pub fn table2(cfg: &ExperimentConfig) -> Vec<Table2Row> {
    let spec = gc_datasets::dataset_by_name("G3_circuit").expect("registry row");
    let g = spec.generate(cfg.scale, cfg.seed);
    table2_on(&g, cfg.seed)
}

/// Table II ladder on an explicit graph.
pub fn table2_on(g: &Csr, seed: u64) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    let mut prev_ms: Option<f64> = None;
    for (i, variant) in table2_variants().into_iter().enumerate() {
        let r = variant.run_full_width(g, seed);
        let step = prev_ms.map(|p| p / r.model_ms).unwrap_or(1.0);
        prev_ms = Some(r.model_ms);
        rows.push(Table2Row {
            optimization: variant.name(),
            model_ms: r.model_ms,
            colors: r.num_colors,
            iterations: r.iterations,
            step_speedup: step,
            paper_ms: TABLE2_PAPER_MS[i],
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 1 (a: speedup vs Naumov/JPL, b: color counts)
// ---------------------------------------------------------------------

/// Results of all nine implementations on one dataset.
#[derive(Clone, Debug)]
pub struct Fig1Dataset {
    pub dataset: String,
    /// `(legend name, result)` in Figure 1 legend order.
    pub results: Vec<(String, ColoringResult)>,
}

impl Fig1Dataset {
    /// Model runtime of the Naumov/JPL reference on this dataset.
    pub fn naumov_jpl_ms(&self) -> f64 {
        self.results
            .iter()
            .find(|(n, _)| n == "Naumov/Color_JPL")
            .map(|(_, r)| r.model_ms)
            .expect("registry includes Naumov/Color_JPL")
    }

    /// Figure 1a speedup of `name` vs Naumov/JPL.
    pub fn speedup(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| self.naumov_jpl_ms() / r.model_ms)
    }

    /// Figure 1b color count of `name`.
    pub fn colors(&self, name: &str) -> Option<u32> {
        self.results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.num_colors)
    }
}

/// Runs the full Figure 1 sweep: 12 datasets × 9 implementations.
pub fn fig1(cfg: &ExperimentConfig) -> Vec<Fig1Dataset> {
    table1_real_world()
        .into_iter()
        .map(|d| fig1_dataset(&d, cfg))
        .collect()
}

/// Figure 1 cells for a single dataset.
pub fn fig1_dataset(spec: &DatasetSpec, cfg: &ExperimentConfig) -> Fig1Dataset {
    let g = spec.generate(cfg.scale, cfg.seed);
    let results = all_colorers()
        .into_iter()
        .map(|c| (c.name().to_string(), c.run(&g, cfg.seed)))
        .collect();
    Fig1Dataset {
        dataset: spec.name.to_string(),
        results,
    }
}

/// Geometric mean of per-dataset speedups of `name` vs Naumov/JPL — the
/// paper's headline aggregation.
pub fn geomean_speedup(data: &[Fig1Dataset], name: &str) -> f64 {
    let logs: Vec<f64> = data
        .iter()
        .filter_map(|d| d.speedup(name))
        .map(|s| s.ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Geometric mean of color-count ratios of `a` over `b`.
pub fn geomean_color_ratio(data: &[Fig1Dataset], a: &str, b: &str) -> f64 {
    let logs: Vec<f64> = data
        .iter()
        .filter_map(|d| match (d.colors(a), d.colors(b)) {
            (Some(x), Some(y)) if y > 0 => Some((x as f64 / y as f64).ln()),
            _ => None,
        })
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

// ---------------------------------------------------------------------
// Figure 2 (time-quality trade-off)
// ---------------------------------------------------------------------

/// One point of the Figure 2 scatter.
#[derive(Clone, Debug)]
pub struct Fig2Point {
    pub dataset: String,
    pub implementation: String,
    pub model_ms: f64,
    pub colors: u32,
}

/// The four implementations of Figure 2 (two per panel).
pub const FIG2_IMPLS: [&str; 4] = [
    "Gunrock/Color_IS",
    "Gunrock/Color_Hash",
    "GraphBLAST/Color_IS",
    "GraphBLAST/Color_MIS",
];

/// Extracts the Figure 2 scatter from a Figure 1 sweep (the paper's
/// Figure 2 is a re-plot of the same runs).
pub fn fig2(data: &[Fig1Dataset]) -> Vec<Fig2Point> {
    let mut pts = Vec::new();
    for d in data {
        for name in FIG2_IMPLS {
            if let Some((_, r)) = d.results.iter().find(|(n, _)| n == name) {
                pts.push(Fig2Point {
                    dataset: d.dataset.clone(),
                    implementation: name.to_string(),
                    model_ms: r.model_ms,
                    colors: r.num_colors,
                });
            }
        }
    }
    pts
}

// ---------------------------------------------------------------------
// Ablations (design-choice studies beyond the paper's exhibits)
// ---------------------------------------------------------------------

/// One row of the hash-table-size ablation.
#[derive(Clone, Debug)]
pub struct HashSizeRow {
    pub hash_size: usize,
    pub model_ms: f64,
    pub colors: u32,
    pub iterations: u32,
}

/// Sweeps the Gunrock hash implementation's per-vertex table size — the
/// paper: *"The hash table size is a modifiable value, and is inversely
/// related to the number of conflicts."* Larger tables mean more reuse
/// and fewer conflict-resolution rounds at higher per-iteration cost.
pub fn ablation_hash_size(cfg: &ExperimentConfig) -> Vec<HashSizeRow> {
    use gc_core::gunrock_hash::{gunrock_hash, HashConfig};
    let g = gc_datasets::dataset_by_name("G3_circuit")
        .expect("registry row")
        .generate(cfg.scale, cfg.seed);
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|hash_size| {
            let r = gunrock_hash(&g, cfg.seed, HashConfig { hash_size });
            HashSizeRow {
                hash_size,
                model_ms: r.model_ms,
                colors: r.num_colors,
                iterations: r.iterations,
            }
        })
        .collect()
}

/// One row of the §VI priority ablation.
#[derive(Clone, Debug)]
pub struct WeightModeRow {
    pub graph: &'static str,
    pub mode: &'static str,
    pub model_ms: f64,
    pub colors: u32,
    pub iterations: u32,
}

/// The paper's §VI hypothesis: on power-law graphs, largest-degree-first
/// priorities should beat random ones; on meshes it should not matter
/// much. Runs Gunrock IS under both modes on both graph classes.
pub fn ablation_weight_mode(cfg: &ExperimentConfig) -> Vec<WeightModeRow> {
    use gc_core::gunrock_is::{gunrock_is, IsConfig};
    let n = ((100_000.0 * cfg.scale) as usize).max(512);
    let powerlaw = gc_graph::generators::barabasi_albert(n, 8, cfg.seed);
    let side = (n as f64).sqrt() as usize;
    let mesh = gc_graph::generators::grid2d(side, side, gc_graph::generators::Stencil2d::NinePoint);
    let mut rows = Vec::new();
    for (gname, g) in [("powerlaw(BA)", &powerlaw), ("mesh(9pt)", &mesh)] {
        for (mode, c) in [
            ("random", IsConfig::min_max()),
            ("largest-degree-first", IsConfig::largest_degree_first()),
        ] {
            let r = gunrock_is(g, cfg.seed, c);
            rows.push(WeightModeRow {
                graph: gname,
                mode,
                model_ms: r.model_ms,
                colors: r.num_colors,
                iterations: r.iterations,
            });
        }
    }
    rows
}

/// One row of the load-balance ablation.
#[derive(Clone, Debug)]
pub struct LoadBalanceRow {
    pub dataset: &'static str,
    pub strategy: &'static str,
    pub model_ms: f64,
    pub colors: u32,
}

/// Thread-mapped vs warp-cooperative IS on the paper's best and worst
/// Gunrock datasets: the serial-loop penalty that sinks `af_shell3`
/// (§V.B) should shrink under warp cooperation, while the low-degree
/// mesh should prefer the cheap thread-mapped kernel.
pub fn ablation_load_balance(cfg: &ExperimentConfig) -> Vec<LoadBalanceRow> {
    use gc_core::gunrock_is::{gunrock_is, IsConfig};
    let mut cases: Vec<(&'static str, Csr)> = Vec::new();
    for name in ["ecology2", "af_shell3"] {
        let g = gc_datasets::dataset_by_name(name)
            .expect("registry row")
            .generate(cfg.scale, cfg.seed);
        cases.push((name, g));
    }
    // A hub-dominated input (clock-tree-like): the case where the
    // thread-mapped kernel's critical path is one enormous serial loop.
    let hub_n = ((1_000_000.0 * cfg.scale) as usize).max(2_048);
    cases.push(("hub_tree(star)", gc_graph::generators::star(hub_n)));
    let mut rows = Vec::new();
    for (name, g) in &cases {
        for (strategy, c) in [
            ("thread-mapped", IsConfig::min_max()),
            ("warp-cooperative", IsConfig::min_max_load_balanced()),
        ] {
            let r = gunrock_is(g, cfg.seed, c);
            rows.push(LoadBalanceRow {
                dataset: name,
                strategy,
                model_ms: r.model_ms,
                colors: r.num_colors,
            });
        }
    }
    rows
}

/// Extension comparison: the §VI future-work algorithms next to the
/// paper's best of each family on one dataset.
pub fn ablation_extensions(cfg: &ExperimentConfig) -> Vec<(String, ColoringResult)> {
    let g = gc_datasets::dataset_by_name("G3_circuit")
        .expect("registry row")
        .generate(cfg.scale, cfg.seed);
    let mut picks: Vec<gc_core::runner::Colorer> = gc_core::runner::all_colorers()
        .into_iter()
        .filter(|c| {
            matches!(
                c.name(),
                "Gunrock/Color_IS"
                    | "GraphBLAST/Color_MIS"
                    | "Naumov/Color_JPL"
                    | "CPU/Color_Greedy"
            )
        })
        .collect();
    picks.extend(gc_core::runner::extension_colorers());
    picks
        .into_iter()
        .map(|c| (c.name().to_string(), c.run(&g, cfg.seed)))
        .collect()
}

/// One implementation's result on a power-law graph.
#[derive(Clone, Debug)]
pub struct PowerLawRow {
    pub implementation: String,
    pub model_ms: f64,
    pub colors: u32,
    pub iterations: u32,
}

/// Extension study: the full Figure 1 registry on a Barabási–Albert
/// power-law graph — the graph class the paper's conclusion singles out
/// as untested ("In this work, we primarily looked at mesh graphs").
pub fn ext_powerlaw(cfg: &ExperimentConfig) -> Vec<PowerLawRow> {
    let n = ((1_000_000.0 * cfg.scale) as usize).max(512);
    let g = gc_graph::generators::barabasi_albert(n, 8, cfg.seed);
    let mut runs: Vec<(String, ColoringResult)> = all_colorers()
        .into_iter()
        .map(|c| (c.name().to_string(), c.run(&g, cfg.seed)))
        .collect();
    runs.extend(
        gc_core::runner::extension_colorers()
            .into_iter()
            .filter(|c| c.name().starts_with("Extension/"))
            .map(|c| (c.name().to_string(), c.run(&g, cfg.seed))),
    );
    runs.into_iter()
        .map(|(implementation, r)| PowerLawRow {
            implementation,
            model_ms: r.model_ms,
            colors: r.num_colors,
            iterations: r.iterations,
        })
        .collect()
}

/// One row of the cross-device ablation.
#[derive(Clone, Debug)]
pub struct DeviceRow {
    pub device: &'static str,
    pub implementation: &'static str,
    pub model_ms: f64,
    pub colors: u32,
}

/// Re-runs three representative implementations on a V100-class device
/// model next to the paper's K40c: colors must be identical (the device
/// only changes timing), runtimes shrink, and the paper's ordering must
/// survive the hardware generation.
pub fn ablation_devices(cfg: &ExperimentConfig) -> Vec<DeviceRow> {
    use gc_core::gunrock_is::IsConfig;
    use gc_vgpu::{Device, DeviceConfig};
    let g = gc_datasets::dataset_by_name("G3_circuit")
        .expect("registry row")
        .generate(cfg.scale, cfg.seed);
    let mut rows = Vec::new();
    for (dname, dcfg) in [
        ("K40c", DeviceConfig::k40c()),
        ("V100", DeviceConfig::v100()),
    ] {
        let runs: [(&'static str, gc_core::ColoringResult); 3] = [
            ("Gunrock/Color_IS", {
                let dev = Device::new(dcfg);
                gc_core::gunrock_is::run_on(&dev, &g, cfg.seed, IsConfig::min_max())
            }),
            ("Naumov/Color_JPL", {
                let dev = Device::new(dcfg);
                gc_core::naumov::jpl_on(&dev, &g, cfg.seed)
            }),
            ("GraphBLAST/Color_MIS", {
                let dev = Device::new(dcfg);
                gc_core::gblas_mis::run_on(&dev, &g, cfg.seed)
            }),
        ];
        for (iname, r) in runs {
            rows.push(DeviceRow {
                device: dname,
                implementation: iname,
                model_ms: r.model_ms,
                colors: r.num_colors,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powerlaw_study_runs_registry_and_extensions() {
        let rows = ext_powerlaw(&ExperimentConfig::smoke());
        assert!(rows.len() >= 12);
        assert!(rows
            .iter()
            .any(|r| r.implementation == "Extension/Color_IS_LDF"));
        // The paper's hypothesis: LDF at least matches random priorities
        // on power-law inputs.
        let ldf = rows
            .iter()
            .find(|r| r.implementation == "Extension/Color_IS_LDF")
            .unwrap();
        let rnd = rows
            .iter()
            .find(|r| r.implementation == "Gunrock/Color_IS")
            .unwrap();
        assert!(
            ldf.colors <= rnd.colors + 2,
            "LDF {} vs random {}",
            ldf.colors,
            rnd.colors
        );
    }

    #[test]
    fn device_ablation_only_changes_timing() {
        let rows = ablation_devices(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 6);
        for name in [
            "Gunrock/Color_IS",
            "Naumov/Color_JPL",
            "GraphBLAST/Color_MIS",
        ] {
            let k = rows
                .iter()
                .find(|r| r.device == "K40c" && r.implementation == name)
                .unwrap();
            let v = rows
                .iter()
                .find(|r| r.device == "V100" && r.implementation == name)
                .unwrap();
            assert_eq!(
                k.colors, v.colors,
                "{name}: colors must not depend on the device model"
            );
            assert!(v.model_ms < k.model_ms, "{name}: V100 should be faster");
        }
    }

    #[test]
    fn table1_has_twelve_rows() {
        let rows = table1(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.stats.vertices >= 256);
            assert!(r.stats.degrees.avg > 0.0);
        }
    }

    #[test]
    fn table2_ladder_monotone_improvement() {
        let rows = table2(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 5);
        // AR baseline must dominate; the final min-max row must be the fastest.
        assert!(rows[0].model_ms > rows[4].model_ms * 3.0);
        for w in rows[1..].windows(2) {
            assert!(
                w[1].model_ms <= w[0].model_ms * 1.15,
                "{} ({} ms) should not regress from {} ({} ms)",
                w[1].optimization,
                w[1].model_ms,
                w[0].optimization,
                w[0].model_ms
            );
        }
    }

    #[test]
    fn fig1_single_dataset_runs_all_impls() {
        let spec = gc_datasets::dataset_by_name("ecology2").unwrap();
        let d = fig1_dataset(&spec, &ExperimentConfig::smoke());
        assert_eq!(d.results.len(), 9);
        assert!(d.naumov_jpl_ms() > 0.0);
        assert!(d.speedup("Gunrock/Color_IS").unwrap() > 0.0);
    }

    #[test]
    fn fig2_extracts_four_series() {
        let spec = gc_datasets::dataset_by_name("ecology2").unwrap();
        let d = vec![fig1_dataset(&spec, &ExperimentConfig::smoke())];
        let pts = fig2(&d);
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn fig3_scales_monotonically() {
        // Figure 3 is the scale sweep's two IS colorers over the
        // configured RGG range.
        let cfg = ExperimentConfig::smoke();
        let sweep = crate::scale_sweep::scale_sweep(cfg.rgg_min, cfg.rgg_max, cfg.seed);
        for colorer in ["Gunrock/Color_IS", "GraphBLAST/Color_IS"] {
            let rows: Vec<_> = sweep.rows.iter().filter(|r| r.colorer == colorer).collect();
            assert_eq!(rows.len(), 3);
            assert!(rows[2].vertices > rows[0].vertices);
            assert!(rows[2].model_ms > rows[0].model_ms, "{colorer}");
        }
    }

    #[test]
    fn hash_size_ablation_sweeps_six_sizes() {
        let rows = ablation_hash_size(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 6);
        // Bigger tables never worsen quality on this input.
        assert!(rows.last().unwrap().colors <= rows[0].colors + 2);
    }

    #[test]
    fn weight_mode_ablation_covers_both_classes() {
        let rows = ablation_weight_mode(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 4);
        let ldf_pl = rows
            .iter()
            .find(|r| r.graph == "powerlaw(BA)" && r.mode == "largest-degree-first")
            .unwrap();
        let rnd_pl = rows
            .iter()
            .find(|r| r.graph == "powerlaw(BA)" && r.mode == "random")
            .unwrap();
        // §VI hypothesis: degree priorities help quality on power law.
        assert!(
            ldf_pl.colors <= rnd_pl.colors + 2,
            "{} vs {}",
            ldf_pl.colors,
            rnd_pl.colors
        );
    }

    #[test]
    fn extensions_ablation_includes_gm() {
        let rows = ablation_extensions(&ExperimentConfig::smoke());
        assert!(rows.iter().any(|(n, _)| n == "Extension/Color_GM"));
        for (name, r) in &rows {
            assert!(r.num_colors > 0, "{name}");
        }
    }

    #[test]
    fn geomean_helpers() {
        let spec = gc_datasets::dataset_by_name("ecology2").unwrap();
        let data = vec![fig1_dataset(&spec, &ExperimentConfig::smoke())];
        let s = geomean_speedup(&data, "Naumov/Color_JPL");
        assert!((s - 1.0).abs() < 1e-9);
        let r = geomean_color_ratio(&data, "Naumov/Color_JPL", "Naumov/Color_JPL");
        assert!((r - 1.0).abs() < 1e-9);
    }
}
