//! The uniform registry of coloring implementations.
//!
//! Every implementation of the paper's Figure 1 legend is exposed behind
//! one interface so the benches, examples, and integration tests can
//! sweep "all implementations × all datasets" the way the evaluation
//! section does.

use gc_graph::Csr;

use crate::color::ColoringResult;
use crate::greedy::Ordering;
use crate::gunrock_hash::HashConfig;
use crate::gunrock_is::IsConfig;
use crate::{
    gblas_is, gblas_jpl, gblas_mis, gm_cpu, gm_gpu, greedy, gunrock_ar, gunrock_hash, gunrock_is,
    jp_cpu, naumov,
};

/// Which algorithm a [`Colorer`] runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ColorerKind {
    CpuGreedy(Ordering),
    CpuJonesPlassmann,
    GunrockIs(IsConfig),
    GunrockHash(HashConfig),
    GunrockAr,
    GblasIs,
    /// Short-cutting GraphBLAST IS (quality tier): Luby winners take
    /// the lowest legal color instead of the round index.
    GblasIsSc,
    GblasMis,
    GblasJpl,
    NaumovJpl,
    NaumovCc,
    /// Future-work extension (paper §VI): Gebremedhin-Manne on the GPU.
    GebremedhinManne,
    /// Related-work baseline (§II.A): shared-memory Gebremedhin-Manne
    /// on host threads.
    GebremedhinManneCpu,
}

/// A named coloring implementation.
#[derive(Clone, Debug)]
pub struct Colorer {
    name: &'static str,
    kind: ColorerKind,
}

impl Colorer {
    pub fn new(name: &'static str, kind: ColorerKind) -> Self {
        Colorer { name, kind }
    }

    /// The Figure 1 legend name, e.g. `"Gunrock/Color_IS"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn kind(&self) -> ColorerKind {
        self.kind
    }

    /// Whether this implementation runs on the (virtual) GPU.
    pub fn is_gpu(&self) -> bool {
        !matches!(
            self.kind,
            ColorerKind::CpuGreedy(_)
                | ColorerKind::CpuJonesPlassmann
                | ColorerKind::GebremedhinManneCpu
        )
    }

    /// Runs the algorithm. When the calling thread has a current
    /// `gc_telemetry::Tracer`, the whole run is wrapped in a `color`
    /// span (the parent of the implementation's per-iteration spans and
    /// the device's kernel events) carrying the run's headline metrics
    /// as attributes.
    pub fn run(&self, g: &Csr, seed: u64) -> ColoringResult {
        self.traced(g, || self.run_inner(g, seed))
    }

    /// Runs the algorithm in the paper's launch shape: every kernel over
    /// all `n` vertices, one dispatch per operator, no frontier
    /// compaction and no launch-graph capture — the transcription before
    /// this reproduction's compaction and capture passes. Table II and
    /// the coloring benchmark's `before` side measure this shape.
    /// Colorers without a compacted path (the host colorers, GPU
    /// Gebremedhin-Manne, short-cutting GraphBLAST IS) run as
    /// [`Colorer::run`]. Colorings and iteration counts equal `run`'s.
    pub fn run_full_width(&self, g: &Csr, seed: u64) -> ColoringResult {
        self.traced(g, || {
            let dev = gc_vgpu::Device::k40c;
            match self.kind {
                ColorerKind::GunrockIs(cfg) => gunrock_is::run_on_full(&dev(), g, seed, cfg),
                ColorerKind::GunrockHash(cfg) => gunrock_hash::run_on_full(&dev(), g, seed, cfg),
                ColorerKind::GunrockAr => gunrock_ar::run_on_full(&dev(), g, seed),
                ColorerKind::GblasIs => gblas_is::run_on_full(&dev(), g, seed),
                ColorerKind::GblasMis => gblas_mis::run_on_full(&dev(), g, seed),
                ColorerKind::GblasJpl => gblas_jpl::run_on_full(&dev(), g, seed),
                ColorerKind::NaumovJpl => naumov::jpl_on_full(&dev(), g, seed),
                ColorerKind::NaumovCc => naumov::cc_on_full(&dev(), g, seed),
                _ => self.run_inner(g, seed),
            }
        })
    }

    /// Wraps one run in a `color` span carrying its headline metrics.
    fn traced(&self, g: &Csr, run: impl FnOnce() -> ColoringResult) -> ColoringResult {
        let mut span = gc_telemetry::span("color");
        span.attr("colorer", self.name);
        span.attr("vertices", g.num_vertices());
        span.attr("edges", g.num_edges());
        let result = run();
        if span.is_recording() {
            span.attr("iterations", result.iterations);
            span.attr("num_colors", result.num_colors);
            span.attr("kernel_launches", result.kernel_launches);
            span.set_model_range(0.0, result.model_ms);
        }
        result
    }

    /// Runs the algorithm on a caller-supplied device instead of a
    /// freshly created one. Returns `None` for the CPU implementations,
    /// which have no device to run on.
    ///
    /// This is the sharded runner's per-device entry point (`gc-shard`):
    /// each shard worker owns a `Device` and colors its local subgraph
    /// through this. Note that every implementation resets the device's
    /// model clock and profiler at the start of its run, so callers that
    /// meter extra work on the same device (halo uploads, conflict
    /// kernels) must do so *after* this returns.
    pub fn run_on_device(
        &self,
        dev: &gc_vgpu::Device,
        g: &Csr,
        seed: u64,
    ) -> Option<ColoringResult> {
        match self.kind {
            ColorerKind::CpuGreedy(_)
            | ColorerKind::CpuJonesPlassmann
            | ColorerKind::GebremedhinManneCpu => None,
            ColorerKind::GunrockIs(cfg) => Some(gunrock_is::run_on(dev, g, seed, cfg)),
            ColorerKind::GunrockHash(cfg) => Some(gunrock_hash::run_on(dev, g, seed, cfg)),
            ColorerKind::GunrockAr => Some(gunrock_ar::run_on(dev, g, seed)),
            ColorerKind::GblasIs => Some(gblas_is::run_on(dev, g, seed, false)),
            ColorerKind::GblasIsSc => Some(gblas_is::run_on(dev, g, seed, true)),
            ColorerKind::GblasMis => Some(gblas_mis::run_on(dev, g, seed)),
            ColorerKind::GblasJpl => Some(gblas_jpl::run_on(dev, g, seed)),
            ColorerKind::NaumovJpl => Some(naumov::jpl_on(dev, g, seed)),
            ColorerKind::NaumovCc => Some(naumov::cc_on(dev, g, seed)),
            ColorerKind::GebremedhinManne => Some(gm_gpu::run_on(dev, g, seed)),
        }
    }

    fn run_inner(&self, g: &Csr, seed: u64) -> ColoringResult {
        match self.kind {
            ColorerKind::CpuGreedy(ord) => greedy::greedy(g, ord, seed),
            ColorerKind::CpuJonesPlassmann => jp_cpu::jones_plassmann_cpu(g, seed),
            ColorerKind::GunrockIs(cfg) => gunrock_is::gunrock_is(g, seed, cfg),
            ColorerKind::GunrockHash(cfg) => gunrock_hash::gunrock_hash(g, seed, cfg),
            ColorerKind::GunrockAr => gunrock_ar::gunrock_ar(g, seed),
            ColorerKind::GblasIs => gblas_is::gblas_is(g, seed),
            ColorerKind::GblasIsSc => gblas_is::gblas_is_sc(g, seed),
            ColorerKind::GblasMis => gblas_mis::gblas_mis(g, seed),
            ColorerKind::GblasJpl => gblas_jpl::gblas_jpl(g, seed),
            ColorerKind::NaumovJpl => naumov::naumov_jpl(g, seed),
            ColorerKind::NaumovCc => naumov::naumov_cc(g, seed),
            ColorerKind::GebremedhinManne => gm_gpu::gebremedhin_manne(g, seed),
            ColorerKind::GebremedhinManneCpu => gm_cpu::gebremedhin_manne_cpu(g, seed),
        }
    }
}

/// The nine implementations of the paper's Figure 1, in legend order.
///
/// ```
/// use gc_core::runner::all_colorers;
/// use gc_core::verify::is_proper;
/// use gc_graph::generators::cycle;
///
/// let g = cycle(9);
/// for colorer in all_colorers() {
///     let r = colorer.run(&g, 42);
///     assert!(is_proper(&g, r.coloring.as_slice()).is_ok(), "{}", colorer.name());
/// }
/// ```
pub fn all_colorers() -> Vec<Colorer> {
    vec![
        Colorer::new(
            "CPU/Color_Greedy",
            ColorerKind::CpuGreedy(Ordering::Natural),
        ),
        Colorer::new("GraphBLAST/Color_IS", ColorerKind::GblasIs),
        Colorer::new("GraphBLAST/Color_JPL", ColorerKind::GblasJpl),
        Colorer::new("GraphBLAST/Color_MIS", ColorerKind::GblasMis),
        Colorer::new("Gunrock/Color_AR", ColorerKind::GunrockAr),
        Colorer::new(
            "Gunrock/Color_Hash",
            ColorerKind::GunrockHash(HashConfig::default()),
        ),
        Colorer::new(
            "Gunrock/Color_IS",
            ColorerKind::GunrockIs(IsConfig::min_max()),
        ),
        Colorer::new("Naumov/Color_CC", ColorerKind::NaumovCc),
        Colorer::new("Naumov/Color_JPL", ColorerKind::NaumovJpl),
    ]
}

/// The paper's §VI future-work extensions, implemented in this
/// reproduction but kept out of the Figure 1 registry (the paper did
/// not evaluate them).
pub fn extension_colorers() -> Vec<Colorer> {
    vec![
        Colorer::new("Extension/Color_GM", ColorerKind::GebremedhinManne),
        Colorer::new(
            "Extension/Color_IS_LDF",
            ColorerKind::GunrockIs(IsConfig::largest_degree_first()),
        ),
        Colorer::new(
            "Extension/Color_IS_LB",
            ColorerKind::GunrockIs(IsConfig::min_max_load_balanced()),
        ),
        Colorer::new(
            "CPU/Color_Greedy_SDL",
            ColorerKind::CpuGreedy(Ordering::SmallestDegreeLast),
        ),
        Colorer::new("CPU/Color_JP", ColorerKind::CpuJonesPlassmann),
        Colorer::new("CPU/Color_GM", ColorerKind::GebremedhinManneCpu),
        Colorer::new(
            "Gunrock/Color_IS_SC",
            ColorerKind::GunrockIs(IsConfig::short_cut()),
        ),
        Colorer::new("GraphBLAST/Color_IS_SC", ColorerKind::GblasIsSc),
    ]
}

/// Looks up a colorer by name, searching the Figure 1 legend first and
/// the §VI extension registry second (so `"CPU/Color_JP"`,
/// `"Extension/Color_GM"`, etc. resolve too). This is the service
/// layer's explicit-override path: any registered implementation can be
/// requested by name.
pub fn colorer_by_name(name: &str) -> Option<Colorer> {
    all_colorers()
        .into_iter()
        .chain(extension_colorers())
        .find(|c| c.name() == name)
}

/// Every registered implementation: the Figure 1 legend plus the §VI
/// extensions, in registry order.
pub fn all_known_colorers() -> Vec<Colorer> {
    all_colorers()
        .into_iter()
        .chain(extension_colorers())
        .collect()
}

/// The Table II ladder of Gunrock optimizations, slowest first.
///
/// Table II isolates the paper's *algorithmic* ladder (advance-reduce →
/// hashing → independent sets → min-max), so its rows run in the
/// paper's launch shape through [`Colorer::run_full_width`]; the
/// compaction and capture optimizations this reproduction adds on top
/// are measured separately by the coloring benchmark's before/after
/// harness.
pub fn table2_variants() -> Vec<Colorer> {
    vec![
        Colorer::new("Baseline (Advance-Reduce)", ColorerKind::GunrockAr),
        Colorer::new(
            "Hash Color",
            ColorerKind::GunrockHash(HashConfig::default()),
        ),
        Colorer::new(
            "Independent Set with Atomics",
            ColorerKind::GunrockIs(IsConfig::single_set_atomics()),
        ),
        Colorer::new(
            "Independent Set without Atomics",
            ColorerKind::GunrockIs(IsConfig::single_set_no_atomics()),
        ),
        Colorer::new(
            "Min-Max Independent Set",
            ColorerKind::GunrockIs(IsConfig::min_max()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::assert_proper;
    use gc_graph::generators::erdos_renyi;

    #[test]
    fn registry_has_figure1_legend() {
        let names: Vec<_> = all_colorers().iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"Gunrock/Color_IS"));
        assert!(names.contains(&"GraphBLAST/Color_MIS"));
        assert!(names.contains(&"Naumov/Color_JPL"));
        assert!(names.contains(&"CPU/Color_Greedy"));
    }

    #[test]
    fn every_registered_colorer_is_proper() {
        let g = erdos_renyi(150, 0.04, 3);
        for c in all_colorers() {
            let r = c.run(&g, 7);
            assert_proper(&g, r.coloring.as_slice());
            assert!(r.model_ms > 0.0, "{} reported zero time", c.name());
        }
    }

    #[test]
    fn gpu_flag() {
        assert!(!colorer_by_name("CPU/Color_Greedy").unwrap().is_gpu());
        assert!(colorer_by_name("Gunrock/Color_IS").unwrap().is_gpu());
    }

    #[test]
    fn lookup_by_name() {
        assert!(colorer_by_name("Gunrock/Color_Hash").is_some());
        assert!(colorer_by_name("nope").is_none());
    }

    #[test]
    fn lookup_resolves_extension_names() {
        for ext in extension_colorers() {
            let found = colorer_by_name(ext.name())
                .unwrap_or_else(|| panic!("{} did not resolve", ext.name()));
            assert_eq!(found.kind(), ext.kind());
        }
        assert!(colorer_by_name("CPU/Color_JP").is_some());
        assert!(colorer_by_name("Extension/Color_GM").is_some());
    }

    #[test]
    fn all_known_covers_both_registries() {
        let known = all_known_colorers();
        assert_eq!(
            known.len(),
            all_colorers().len() + extension_colorers().len()
        );
        let names: std::collections::HashSet<_> = known.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), known.len(), "registry names must be unique");
    }

    #[test]
    fn table2_ladder_has_five_rows() {
        assert_eq!(table2_variants().len(), 5);
    }

    #[test]
    fn traced_run_nests_iterations_and_kernels_under_color_span() {
        let g = erdos_renyi(80, 0.05, 11);
        let tracer = gc_telemetry::Tracer::new();
        {
            let _cur = tracer.make_current();
            let r = colorer_by_name("Gunrock/Color_IS").unwrap().run(&g, 3);
            assert_proper(&g, r.coloring.as_slice());
        }
        let records = tracer.records();
        let color = records
            .iter()
            .find(|r| r.name == "color")
            .expect("color span");
        assert!(color
            .attrs
            .iter()
            .any(|(k, v)| k == "colorer" && v == "Gunrock/Color_IS"));
        assert!(color.attrs.iter().any(|(k, _)| k == "iterations"));
        assert!(color.model_dur_ms.unwrap() > 0.0);
        let iter = records
            .iter()
            .find(|r| r.name == "iteration")
            .expect("iteration span");
        assert_eq!(iter.parent, Some(color.id), "iteration nests under color");
        assert!(iter.attrs.iter().any(|(k, _)| k == "frontier_uncolored"));
        let kernel = records
            .iter()
            .find(|r| r.name.starts_with("is::") && r.parent == Some(iter.id))
            .unwrap_or_else(|| panic!("no kernel event under iteration {}", iter.id));
        assert!(kernel.attrs.iter().any(|(k, _)| k == "threads"));
    }

    #[test]
    fn every_gpu_colorer_emits_iteration_spans_when_traced() {
        let g = erdos_renyi(60, 0.06, 2);
        for c in all_colorers().into_iter().filter(|c| c.is_gpu()) {
            let tracer = gc_telemetry::Tracer::new();
            {
                let _cur = tracer.make_current();
                c.run(&g, 5);
            }
            let records = tracer.records();
            assert!(
                records.iter().any(|r| r.name == "iteration"),
                "{} emitted no iteration span",
                c.name()
            );
        }
    }

    #[test]
    fn untraced_run_records_nothing() {
        let g = erdos_renyi(40, 0.05, 1);
        let tracer = gc_telemetry::Tracer::new();
        colorer_by_name("Naumov/Color_JPL").unwrap().run(&g, 1);
        assert!(tracer.records().is_empty());
    }
}
