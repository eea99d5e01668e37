//! Before/after benchmark of the frontier-compaction and launch-graph
//! work (`repro bench`).
//!
//! Every Figure 1 colorer runs twice per dataset: once through its
//! pre-optimization baseline (full-width frontiers, one dispatch per
//! operator — the paper's launch shape) and once through today's
//! default path (compacted frontiers whose per-iteration pipeline is
//! captured once as a launch graph and replayed). Each side reports
//! model-ms, wall-ms, simulated thread-executions, kernel launches,
//! graph replays, launch-overhead model time, and iteration count; the
//! row also records whether the two sides produced bit-identical
//! colorings (both optimizations are pure work/overhead optimizations,
//! so they must).
//!
//! With `--devices N` (N > 1) the matrix gains a second family of rows
//! over the two largest datasets: for every GPU colorer, `before` is the
//! plain single-device run and `after` is the `gc_shard::run_sharded`
//! run across N virtual devices, where the after side's
//! `thread_executions` and `launches` are the per-device MAXIMUM — the
//! multi-device question is whether any single device still does the
//! whole graph's work. Sharded rows carry `devices`, `halo_bytes` (the
//! full-replication exchange volume), `halo_bytes_delta` (what the
//! delta exchange actually moved), `overlap_ratio` (the fraction of
//! halo-transfer cycles hidden behind compute), `sharded_efficiency`
//! (sharded model-ms over single-device model-ms — below 1 means
//! sharding is a wall-clock win, not just a capacity win),
//! `conflict_rounds`, and `verified`. The sharded `after` side's wall
//! time is the median of [`SHARD_WALL_SAMPLES`] runs, which must agree
//! on every coloring and model number.
//!
//! With `--quality` the document additionally carries a `pareto` array:
//! one colors-vs-model-ms point per dataset for every Figure 1 colorer
//! (reusing the matrix's optimized side), the two short-cutting IS
//! variants, and a `+reduce` arm that runs the iterated-greedy
//! [`gc_core::reduce::reduce_colors`] post-pass on top of the fastest
//! colorer (`Naumov/Color_CC`) — the service's `MinColors` route. The
//! document's `quality_budget` object names that [`QUALITY_ROUTE`] row
//! and declares the quality gates the committed artifact pins: on each
//! gated dataset the route must land within [`QUALITY_MAX_EXTRA_COLORS`]
//! colors of the [`QUALITY_COLOR_ANCHOR`] while executing, base plus
//! passes, at least [`QUALITY_MIN_TE_RATIO`]× fewer simulated threads
//! than the [`QUALITY_WORK_REFERENCE`], and the Naumov `+reduce` arm
//! must strictly reduce its color count. Both gates bind only on rows
//! with at least [`QUALITY_GATE_MIN_VERTICES`] vertices, so smoke-scale
//! runs are shape-checked but not quality-gated.
//!
//! `to_json` emits the `gc-bench-coloring/v7` document committed as
//! `BENCH_coloring.json`, the artifact that anchors the perf trajectory:
//! future optimization PRs regenerate it and diff the counters.
//! `validate_report_json` re-parses a document with the gc-telemetry
//! JSON parser and checks the schema's shape — including that no
//! single-device row's `after` side dispatches more launches than its
//! `before` side, that every row verified, that no sharded row blew
//! the conflict-round cap, that every side of every row stayed
//! inside the document's declared wall-clock budget
//! ([`WALL_BUDGET_RATIO`] host ms per model ms plus
//! [`WALL_BUDGET_SLACK_MS`] of flat slack), and that sharded rows meet
//! the document's declared shard budget: `sharded_efficiency` at most
//! [`SHARDED_EFFICIENCY_BUDGET`] on rows where the gate is meaningful
//! (at least [`SHARD_GATE_MIN_VERTICES`] vertices and at most
//! [`SHARD_GATE_MAX_DEVICES`] devices — outside that window, fixed
//! launch and transfer overheads dominate model time and the ratio
//! measures overhead, not sharding), and `halo_bytes_delta` strictly below
//! `halo_bytes` whenever halo traffic exists at all — the delta
//! exchange must actually beat full replication. `repro bench`
//! self-checks its own output through it, and `repro bench-check FILE`
//! exposes it to CI.

use std::time::Instant;

use gc_core::reduce::{reduce_colors, ReduceBudget};
use gc_core::runner::{all_colorers, colorer_by_name, Colorer};
use gc_core::verify::is_proper;
use gc_core::ColoringResult;
use gc_graph::Csr;
use gc_shard::{run_sharded, ShardedConfig, ShardedResult, MAX_CONFLICT_ROUNDS};
use gc_vgpu::Device;

use crate::experiments::ExperimentConfig;

/// The document's `schema` field.
pub const SCHEMA: &str = "gc-bench-coloring/v7";

/// Per-row wall-clock budget the emitted document declares: no side of
/// any row may spend more than `max_wall_per_model` host milliseconds
/// per simulated millisecond, plus a flat slack that absorbs the fixed
/// host overhead dominating rows whose model time is tiny. A sharded
/// `after` side gets the budget multiplied by its device count: it
/// reports concurrent model time (max over devices) while the host
/// simulates every device, serially when cores run out. `bench-check`
/// enforces whatever the document declares, so a committed artifact
/// pins the executor's wall-clock-per-model-work level and a future
/// executor regression fails CI instead of silently inflating wall_ms.
///
/// Calibration: the hottest committed row (the G3_circuit GR/AR
/// full-width baseline, ~12 model ms) costs ~2.7–3.4 host seconds
/// depending on the day's host — a measured ~1.4× swing between
/// sessions with identical code — so the ratio carries enough headroom
/// that host drift alone cannot fail a regeneration while a genuine
/// multi-x executor slowdown still does.
pub const WALL_BUDGET_RATIO: f64 = 350.0;

/// Flat per-row slack (ms) of the wall-clock budget.
pub const WALL_BUDGET_SLACK_MS: f64 = 50.0;

/// Timed runs per sharded `after` side; the row records the median
/// wall time. Several simulated devices share the host's cores, so one
/// sample swings by more than the wall budget's headroom.
pub const SHARD_WALL_SAMPLES: usize = 3;

/// Shard budget the emitted document declares: on every gated sharded
/// row, end-to-end sharded model time may exceed the single-device run
/// by at most this factor. The overlapped delta exchange is what keeps
/// real rows under it; committing an artifact that declares it pins the
/// sharding tax in CI.
pub const SHARDED_EFFICIENCY_BUDGET: f64 = 1.5;

/// Vertex floor of the efficiency gate. Below this the per-round fixed
/// costs (kernel launch overhead, transfer setup) dominate model time
/// on both sides, so the ratio measures constant overhead rather than
/// the exchange design; smoke-scale rows are shape-checked but not
/// efficiency-gated.
pub const SHARD_GATE_MIN_VERTICES: u64 = 50_000;

/// Device-count ceiling of the efficiency gate. The budget is declared
/// for the matrix's primary fan-out; wider rows strong-scale a fixed
/// graph until per-device work drops below the amortization floor
/// (G3_circuit at 8 devices owns 40K vertices/device), so they are
/// reported for scaling visibility — and still must verify and beat
/// full replication on traffic — but their model-time ratio measures
/// fixed round costs, not the exchange design.
pub const SHARD_GATE_MAX_DEVICES: u64 = 4;

/// The gated row of the quality gate: the service's `MinColors` route,
/// the fastest colorer plus the iterated-greedy post-pass.
pub const QUALITY_ROUTE: &str = "Naumov/Color_CC+reduce";

/// Color anchor of the quality gate: the sequential first-fit baseline
/// whose count the route must reach.
pub const QUALITY_COLOR_ANCHOR: &str = "CPU/Color_Greedy";

/// How many colors past the anchor a gated route row may use.
pub const QUALITY_MAX_EXTRA_COLORS: u32 = 0;

/// Work reference of the quality gate: the paper's best-quality device
/// colorer. The route buys its greedy-grade counts with post-pass
/// device work, so the gate demands it spend *much less* of it than the
/// MIS-per-color pipeline that previously owned the quality end.
pub const QUALITY_WORK_REFERENCE: &str = "GraphBLAST/Color_MIS";

/// Minimum ratio `reference.thread_executions /
/// route.thread_executions` on gated rows.
pub const QUALITY_MIN_TE_RATIO: f64 = 3.0;

/// Vertex floor of the quality gates. Below it per-pass fixed costs
/// dominate and the ratios measure overhead, exactly like the shard
/// gate's floor; smoke runs stay shape-checked only.
pub const QUALITY_GATE_MIN_VERTICES: u64 = 50_000;

/// Datasets the color/work gate binds on — the two largest Table I
/// stand-ins, where the committed artifact pins the acceptance numbers.
/// The 3-D meshes (`offshore`, `thermomech_dK`) are reported in the
/// pareto array for visibility but not color-gated: their higher-degree
/// stencils put every parallel colorer several colors past greedy.
pub const QUALITY_GATE_DATASETS: [&str; 2] = ["ecology2", "G3_circuit"];

/// Quality-tier extension colorers added to the pareto sweep next to
/// the nine Figure 1 rows.
pub const QUALITY_COLORERS: [&str; 2] = ["Gunrock/Color_IS_SC", "GraphBLAST/Color_IS_SC"];

/// Datasets the bench sweeps: the road-like sparse mesh the acceptance
/// tracking cares about first, then a 3-D mesh, a circuit, and a
/// thermal problem — the structural spread of Table I.
pub const BENCH_DATASETS: [&str; 4] = ["ecology2", "offshore", "G3_circuit", "thermomech_dK"];

/// The two largest Table I datasets, swept by the sharded rows: big
/// enough that splitting them across devices is the realistic scenario.
pub const SHARD_DATASETS: [&str; 2] = ["ecology2", "G3_circuit"];

/// Counters from one side (baseline or compacted) of one matrix cell.
#[derive(Clone, Copy, Debug)]
pub struct BenchSide {
    pub model_ms: f64,
    pub wall_ms: f64,
    /// Simulated thread executions (0 for host-only colorers).
    pub thread_executions: u64,
    pub launches: u64,
    /// Launch-graph replays (0 for uncaptured paths and host colorers).
    pub graph_replays: u64,
    /// Model milliseconds spent on fixed launch overhead — the term the
    /// captured pipelines shrink.
    pub launch_overhead_ms: f64,
    pub iterations: u32,
}

/// One colorer × dataset cell of the benchmark matrix.
#[derive(Clone, Debug)]
pub struct BenchRow {
    pub colorer: String,
    pub dataset: String,
    pub vertices: usize,
    pub edges: usize,
    /// Colors used (both sides agree whenever `identical_coloring`).
    pub colors: u32,
    /// Did baseline and compacted produce the same assignment?
    pub identical_coloring: bool,
    /// Devices the `after` side ran on: 1 for the compaction rows, N for
    /// the sharded rows (whose after counters are per-device maxima).
    pub devices: usize,
    /// Full-replication halo volume: what a whole-boundary broadcast
    /// would move over the run's conflict rounds (0 at devices=1).
    pub halo_bytes: u64,
    /// Device-to-device bytes the delta exchange actually moved
    /// (0 at devices=1).
    pub halo_bytes_delta: u64,
    /// Fraction of halo-transfer cycles hidden behind device compute
    /// by the async exchange (0 at devices=1).
    pub overlap_ratio: f64,
    /// after model-ms over before model-ms on sharded rows — the
    /// sharding tax; below 1.0 sharding wins outright (0 at devices=1).
    pub sharded_efficiency: f64,
    /// Boundary-conflict resolution rounds (0 at devices=1).
    pub conflict_rounds: u32,
    /// The after side's coloring verified proper on the host.
    pub verified: bool,
    pub before: BenchSide,
    pub after: BenchSide,
}

/// One colors-vs-model-ms point of the quality sweep: a single colorer
/// (or colorer `+reduce` arm) on a single dataset through today's
/// default optimized path.
#[derive(Clone, Debug)]
pub struct ParetoRow {
    /// Registry name, with a `+reduce` suffix on the post-pass arms.
    pub colorer: String,
    pub dataset: String,
    pub vertices: usize,
    /// Final distinct colors (after the post-pass on `+reduce` arms).
    pub colors: u32,
    /// End-to-end model time; `+reduce` arms include the post-pass.
    pub model_ms: f64,
    /// Simulated thread executions; `+reduce` arms include the
    /// reduction kernels' threads (0 for host-only colorers).
    pub thread_executions: u64,
    pub iterations: u32,
    /// Distinct colors before the reduction post-pass (0 on rows that
    /// ran no post-pass).
    pub colors_before: u32,
    /// Distinct colors after the post-pass; equals `colors` on
    /// `+reduce` arms, 0 elsewhere.
    pub colors_after: u32,
    /// Reduction sweeps the post-pass executed (0 without a post-pass).
    pub reduction_passes: u32,
    /// The row's final coloring verified proper on the host.
    pub verified: bool,
}

/// Full benchmark outcome: the colorer × dataset matrix plus the knobs
/// that generated it.
#[derive(Clone, Debug)]
pub struct BenchReport {
    pub scale: f64,
    pub seed: u64,
    /// Largest device count among the sharded rows (each row carries
    /// its own `devices`); 1 means no sharded rows.
    pub devices: usize,
    /// Whether the quality sweep ran (`pareto` is empty otherwise).
    pub quality: bool,
    pub rows: Vec<BenchRow>,
    /// Colors-vs-time points of the quality sweep (see [`ParetoRow`]).
    pub pareto: Vec<ParetoRow>,
}

fn timed(f: impl FnOnce() -> ColoringResult) -> (ColoringResult, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

fn side_of(r: &ColoringResult, wall_ms: f64) -> BenchSide {
    BenchSide {
        model_ms: r.model_ms,
        wall_ms,
        thread_executions: r.profile.as_ref().map_or(0, |p| p.thread_executions),
        launches: r.kernel_launches,
        graph_replays: r.profile.as_ref().map_or(0, |p| p.graph_replays),
        launch_overhead_ms: r.profile.as_ref().map_or(0.0, |p| p.launch_overhead_ms),
        iterations: r.iterations,
    }
}

/// Runs the full before/after matrix over [`BENCH_DATASETS`]; every
/// entry of `device_counts` greater than 1 adds a family of sharded
/// rows over [`SHARD_DATASETS`] at that device count (so one document
/// can hold e.g. 4-way and 8-way rows side by side). `quality` adds
/// the colors-vs-time pareto sweep on every dataset.
pub fn coloring_bench(
    cfg: &ExperimentConfig,
    device_counts: &[usize],
    quality: bool,
) -> BenchReport {
    coloring_bench_on(
        cfg,
        &BENCH_DATASETS,
        &SHARD_DATASETS,
        device_counts,
        quality,
    )
}

/// [`coloring_bench`] over explicit dataset lists (tests and the CI
/// smoke step run a single small dataset).
pub fn coloring_bench_on(
    cfg: &ExperimentConfig,
    datasets: &[&str],
    shard_datasets: &[&str],
    device_counts: &[usize],
    quality: bool,
) -> BenchReport {
    let shard_counts: Vec<usize> = device_counts.iter().copied().filter(|&d| d > 1).collect();
    let mut rows = Vec::new();
    let mut pareto = Vec::new();
    for name in datasets {
        let spec = gc_datasets::dataset_by_name(name).expect("bench dataset registered");
        let g = spec.generate(cfg.scale, cfg.seed);
        // The +reduce arm reuses the matrix's Naumov/Color_CC run
        // instead of recoloring from scratch.
        let mut cc_result: Option<ColoringResult> = None;
        for colorer in all_colorers() {
            let (before_r, before_wall) = timed(|| colorer.run_full_width(&g, cfg.seed));
            let (after_r, after_wall) = timed(|| colorer.run(&g, cfg.seed));
            rows.push(BenchRow {
                colorer: colorer.name().to_string(),
                dataset: name.to_string(),
                vertices: g.num_vertices(),
                edges: g.num_edges(),
                colors: after_r.num_colors,
                identical_coloring: before_r.coloring == after_r.coloring,
                devices: 1,
                halo_bytes: 0,
                halo_bytes_delta: 0,
                overlap_ratio: 0.0,
                sharded_efficiency: 0.0,
                conflict_rounds: 0,
                verified: is_proper(&g, after_r.coloring.as_slice()).is_ok(),
                before: side_of(&before_r, before_wall),
                after: side_of(&after_r, after_wall),
            });
            if quality {
                pareto.push(pareto_row(colorer.name(), name, &g, &after_r));
                if colorer.name() == "Naumov/Color_CC" {
                    cc_result = Some(after_r);
                }
            }
        }
        if quality {
            for qname in QUALITY_COLORERS {
                let c = colorer_by_name(qname).expect("quality colorer registered");
                pareto.push(pareto_row(qname, name, &g, &c.run(&g, cfg.seed)));
            }
            let cc = cc_result.expect("registry includes Naumov/Color_CC");
            pareto.push(reduce_arm("Naumov/Color_CC", name, &g, &cc));
        }
    }
    if !shard_counts.is_empty() {
        for name in shard_datasets {
            let spec = gc_datasets::dataset_by_name(name).expect("shard dataset registered");
            let g = spec.generate(cfg.scale, cfg.seed);
            for colorer in all_colorers().into_iter().filter(|c| c.is_gpu()) {
                for &devices in &shard_counts {
                    rows.push(shard_row(&colorer, name, &g, cfg.seed, devices));
                }
            }
        }
    }
    BenchReport {
        scale: cfg.scale,
        seed: cfg.seed,
        devices: shard_counts.iter().copied().max().unwrap_or(1),
        quality,
        rows,
        pareto,
    }
}

/// One pareto point from an already-run colorer result.
fn pareto_row(colorer: &str, dataset: &str, g: &Csr, r: &ColoringResult) -> ParetoRow {
    ParetoRow {
        colorer: colorer.to_string(),
        dataset: dataset.to_string(),
        vertices: g.num_vertices(),
        colors: r.num_colors,
        model_ms: r.model_ms,
        thread_executions: r.profile.as_ref().map_or(0, |p| p.thread_executions),
        iterations: r.iterations,
        colors_before: 0,
        colors_after: 0,
        reduction_passes: 0,
        verified: is_proper(g, r.coloring.as_slice()).is_ok(),
    }
}

/// One `+reduce` pareto arm: the iterated color-reduction post-pass on
/// top of `base`'s coloring, metered on its own device so the arm's
/// totals are base + post-pass.
fn reduce_arm(base_name: &str, dataset: &str, g: &Csr, base: &ColoringResult) -> ParetoRow {
    let mut colors = base.coloring.as_slice().to_vec();
    let dev = Device::k40c();
    let outcome = reduce_colors(&dev, g, &mut colors, ReduceBudget::default());
    let reduce_te = dev.profile().thread_executions;
    ParetoRow {
        colorer: format!("{base_name}+reduce"),
        dataset: dataset.to_string(),
        vertices: g.num_vertices(),
        colors: outcome.colors_after,
        model_ms: base.model_ms + outcome.model_ms,
        thread_executions: base.profile.as_ref().map_or(0, |p| p.thread_executions) + reduce_te,
        iterations: base.iterations + outcome.passes,
        colors_before: outcome.colors_before,
        colors_after: outcome.colors_after,
        reduction_passes: outcome.passes,
        verified: is_proper(g, &colors).is_ok(),
    }
}

/// One sharded row: `before` is the plain single-device run, `after`
/// the N-device sharded run. The after side's `thread_executions` and
/// `launches` are the per-device MAXIMUM — the number that answers
/// "does sharding actually shrink what any one device does" — while its
/// model/wall times are end-to-end for the whole sharded pipeline. The
/// sharded run repeats [`SHARD_WALL_SAMPLES`] times and the row records
/// the median wall time.
///
/// # Panics
///
/// Panics when the repeated sharded runs disagree on the coloring or on
/// any model number: a sharded run is deterministic for a fixed seed.
fn shard_row(colorer: &Colorer, dataset: &str, g: &Csr, seed: u64, devices: usize) -> BenchRow {
    let (before_r, before_wall) = timed(|| colorer.run(g, seed));
    let cfg = ShardedConfig::new(devices);
    let timed_sharded = || {
        let t0 = Instant::now();
        let run = run_sharded(colorer, g, seed, &cfg);
        (run, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (sharded, wall) = timed_sharded();
    let mut walls = vec![wall];
    for _ in 1..SHARD_WALL_SAMPLES {
        let (again, wall) = timed_sharded();
        walls.push(wall);
        let what = format!("{} on {dataset} at {devices} devices", colorer.name());
        assert!(
            again.result.coloring == sharded.result.coloring,
            "{what}: repeated sharded runs colored differently"
        );
        assert_eq!(
            model_numbers(&again),
            model_numbers(&sharded),
            "{what}: repeated sharded runs disagree"
        );
    }
    walls.sort_by(f64::total_cmp);
    let mut after = side_of(&sharded.result, walls[walls.len() / 2]);
    after.thread_executions = sharded.max_device_thread_executions();
    after.launches = sharded
        .per_device
        .iter()
        .map(|d| d.launches)
        .max()
        .unwrap_or(after.launches);
    BenchRow {
        colorer: colorer.name().to_string(),
        dataset: dataset.to_string(),
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        colors: sharded.result.num_colors,
        identical_coloring: before_r.coloring == sharded.result.coloring,
        devices,
        halo_bytes: sharded.halo_bytes,
        halo_bytes_delta: sharded.halo_bytes_delta,
        overlap_ratio: sharded.overlap_ratio,
        sharded_efficiency: if before_r.model_ms > 0.0 {
            sharded.result.model_ms / before_r.model_ms
        } else {
            0.0
        },
        conflict_rounds: sharded.conflict_rounds,
        verified: sharded.verified,
        before: side_of(&before_r, before_wall),
        after,
    }
}

/// Every model number of a sharded run the bench reports or derives a
/// row field from.
fn model_numbers(s: &ShardedResult) -> impl PartialEq + std::fmt::Debug {
    let r = &s.result;
    let profile = r
        .profile
        .as_ref()
        .map(|p| (p.thread_executions, p.graph_replays, p.launch_overhead_ms));
    let per_device: Vec<_> = s
        .per_device
        .iter()
        .map(|d| (d.model_ms, d.thread_executions, d.launches, d.d2d_bytes))
        .collect();
    (
        (
            r.num_colors,
            r.model_ms,
            r.iterations,
            r.kernel_launches,
            profile,
        ),
        (s.conflict_rounds, s.halo_bytes, s.halo_bytes_delta),
        (s.overlap_ratio, s.changed_boundary, s.verified, per_device),
    )
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect()
}

fn json_side(s: &BenchSide) -> String {
    format!(
        "{{\"model_ms\": {:.4}, \"wall_ms\": {:.4}, \"thread_executions\": {}, \
         \"launches\": {}, \"graph_replays\": {}, \"launch_overhead_ms\": {:.4}, \
         \"iterations\": {}}}",
        s.model_ms,
        s.wall_ms,
        s.thread_executions,
        s.launches,
        s.graph_replays,
        s.launch_overhead_ms,
        s.iterations
    )
}

/// Serializes a report as a `gc-bench-coloring/v7` JSON document.
pub fn to_json(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"scale\": {},\n", report.scale));
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"devices\": {},\n", report.devices));
    out.push_str(&format!("  \"quality\": {},\n", report.quality));
    out.push_str(&format!(
        "  \"wall_budget\": {{\"max_wall_per_model\": {WALL_BUDGET_RATIO}, \
         \"slack_ms\": {WALL_BUDGET_SLACK_MS}}},\n"
    ));
    out.push_str(&format!(
        "  \"shard_budget\": {{\"max_efficiency\": {SHARDED_EFFICIENCY_BUDGET}, \
         \"min_vertices\": {SHARD_GATE_MIN_VERTICES}, \
         \"max_devices\": {SHARD_GATE_MAX_DEVICES}}},\n"
    ));
    out.push_str(&format!(
        "  \"quality_budget\": {{\"route\": \"{QUALITY_ROUTE}\", \
         \"color_anchor\": \"{QUALITY_COLOR_ANCHOR}\", \
         \"max_extra_colors\": {QUALITY_MAX_EXTRA_COLORS}, \
         \"work_reference\": \"{QUALITY_WORK_REFERENCE}\", \
         \"min_te_ratio\": {QUALITY_MIN_TE_RATIO}, \
         \"min_vertices\": {QUALITY_GATE_MIN_VERTICES}, \
         \"datasets\": [{}]}},\n",
        QUALITY_GATE_DATASETS
            .iter()
            .map(|d| format!("\"{d}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"colorer\": \"{}\", \"dataset\": \"{}\", \"vertices\": {}, \
             \"edges\": {}, \"colors\": {}, \"identical_coloring\": {}, \
             \"devices\": {}, \"halo_bytes\": {}, \"halo_bytes_delta\": {}, \
             \"overlap_ratio\": {:.4}, \"sharded_efficiency\": {:.4}, \
             \"conflict_rounds\": {}, \"verified\": {},\n      \
             \"before\": {},\n      \"after\": {}}}{}\n",
            esc(&r.colorer),
            esc(&r.dataset),
            r.vertices,
            r.edges,
            r.colors,
            r.identical_coloring,
            r.devices,
            r.halo_bytes,
            r.halo_bytes_delta,
            r.overlap_ratio,
            r.sharded_efficiency,
            r.conflict_rounds,
            r.verified,
            json_side(&r.before),
            json_side(&r.after),
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"pareto\": [\n");
    for (i, p) in report.pareto.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"colorer\": \"{}\", \"dataset\": \"{}\", \"vertices\": {}, \
             \"colors\": {}, \"model_ms\": {:.4}, \"thread_executions\": {}, \
             \"iterations\": {}, \"colors_before\": {}, \"colors_after\": {}, \
             \"reduction_passes\": {}, \"verified\": {}}}{}\n",
            esc(&p.colorer),
            esc(&p.dataset),
            p.vertices,
            p.colors,
            p.model_ms,
            p.thread_executions,
            p.iterations,
            p.colors_before,
            p.colors_after,
            p.reduction_passes,
            p.verified,
            if i + 1 < report.pareto.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `gc-bench-coloring/v7` document: parses it with the
/// gc-telemetry JSON parser, checks every field the schema promises,
/// and enforces the perf invariants — a single-device row's optimized
/// side must never dispatch more launches than its baseline, every row
/// must have verified proper, no sharded row may exceed the
/// conflict-round cap, no side of any row may exceed the document's
/// declared wall-clock budget (`wall_ms` must stay within
/// `max_wall_per_model * model_ms + slack_ms`), and every sharded row
/// must meet the document's declared shard budget: delta traffic
/// strictly below the full-replication volume whenever halo traffic
/// exists, and `sharded_efficiency <= max_efficiency` on rows with at
/// least `min_vertices` vertices and at most `max_devices` devices.
///
/// The quality section is enforced against the document's own
/// `quality_budget`: `quality: false` requires an empty `pareto` array,
/// `quality: true` a non-empty one whose rows all verified; `+reduce`
/// arms may never increase colors; on every gated dataset (declared in
/// the budget, at least its `min_vertices` vertices in any row) a
/// quality document must carry the budget's `route`, `color_anchor` and
/// `work_reference` pareto rows, and the route row must stay within
/// `max_extra_colors` of the anchor while executing at least
/// `min_te_ratio`× fewer threads than the reference; and the
/// `Naumov/Color_CC` `+reduce` arm must *strictly* reduce its color
/// count anywhere the vertex floor is met.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    use gc_telemetry::json::{parse, Json};
    let doc = parse(text)?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == SCHEMA => {}
        other => return Err(format!("schema must be {SCHEMA:?}, got {other:?}")),
    }
    for f in ["scale", "seed", "devices"] {
        doc.get(f)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("missing numeric {f}"))?;
    }
    let budget = doc.get("wall_budget").ok_or("missing wall_budget object")?;
    let budget_field = |f: &str| {
        budget
            .get(f)
            .and_then(|v| v.as_f64())
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("wall_budget: missing or non-positive {f}"))
    };
    let max_wall_per_model = budget_field("max_wall_per_model")?;
    let slack_ms = budget_field("slack_ms")?;
    let shard_budget = doc
        .get("shard_budget")
        .ok_or("missing shard_budget object")?;
    let shard_field = |f: &str| {
        shard_budget
            .get(f)
            .and_then(|v| v.as_f64())
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("shard_budget: missing or non-positive {f}"))
    };
    let max_efficiency = shard_field("max_efficiency")?;
    let gate_min_vertices = shard_field("min_vertices")?;
    let gate_max_devices = shard_field("max_devices")?;
    let quality = match doc.get("quality") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("missing boolean quality".into()),
    };
    let quality_budget = doc
        .get("quality_budget")
        .ok_or("missing quality_budget object")?;
    let quality_field = |f: &str| {
        quality_budget
            .get(f)
            .and_then(|v| v.as_f64())
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("quality_budget: missing or negative {f}"))
    };
    let max_extra_colors = quality_field("max_extra_colors")?;
    let min_te_ratio = quality_field("min_te_ratio")?;
    let quality_min_vertices = quality_field("min_vertices")?;
    let route = quality_budget
        .get("route")
        .and_then(|v| v.as_str())
        .ok_or("quality_budget: missing route")?;
    let color_anchor = quality_budget
        .get("color_anchor")
        .and_then(|v| v.as_str())
        .ok_or("quality_budget: missing color_anchor")?;
    let work_reference = quality_budget
        .get("work_reference")
        .and_then(|v| v.as_str())
        .ok_or("quality_budget: missing work_reference")?;
    let gated_datasets: Vec<String> = quality_budget
        .get("datasets")
        .and_then(|v| v.as_array())
        .ok_or("quality_budget: missing datasets array")?
        .iter()
        .filter_map(|d| d.as_str().map(|s| s.to_string()))
        .collect();
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("missing rows array")?;
    if rows.is_empty() {
        return Err("rows must be non-empty".into());
    }
    // dataset -> vertices, from matrix and pareto rows alike.
    let mut dataset_vertices = std::collections::HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        let missing = |f: &str| format!("row {i}: missing or mistyped {f}");
        row.get("colorer")
            .and_then(|v| v.as_str())
            .ok_or_else(|| missing("colorer"))?;
        let dataset = row
            .get("dataset")
            .and_then(|v| v.as_str())
            .ok_or_else(|| missing("dataset"))?;
        for f in [
            "vertices",
            "edges",
            "colors",
            "devices",
            "halo_bytes",
            "halo_bytes_delta",
            "overlap_ratio",
            "sharded_efficiency",
            "conflict_rounds",
        ] {
            row.get(f)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| missing(f))?;
        }
        match row.get("identical_coloring") {
            Some(Json::Bool(_)) => {}
            _ => return Err(missing("identical_coloring")),
        }
        match row.get("verified") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!("row {i}: coloring failed verification"))
            }
            _ => return Err(missing("verified")),
        }
        let row_vertices = row.get("vertices").and_then(|v| v.as_f64()).unwrap_or(0.0);
        dataset_vertices.insert(dataset.clone(), row_vertices);
        let row_devices = row.get("devices").and_then(|v| v.as_f64()).unwrap_or(1.0);
        let rounds = row
            .get("conflict_rounds")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if rounds > MAX_CONFLICT_ROUNDS as f64 {
            return Err(format!(
                "row {i}: conflict_rounds ({rounds}) exceeds the cap ({MAX_CONFLICT_ROUNDS})"
            ));
        }
        if row_devices > 1.0 {
            let num = |f: &str| row.get(f).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let (halo, delta) = (num("halo_bytes"), num("halo_bytes_delta"));
            if halo > 0.0 && delta >= halo {
                return Err(format!(
                    "row {i}: halo_bytes_delta ({delta}) is not below halo_bytes \
                     ({halo}) — the delta exchange stopped beating full replication"
                ));
            }
            let (vertices, eff) = (num("vertices"), num("sharded_efficiency"));
            if vertices >= gate_min_vertices
                && row_devices <= gate_max_devices
                && eff > max_efficiency
            {
                return Err(format!(
                    "row {i}: sharded_efficiency ({eff:.4}) exceeds the declared \
                     budget ({max_efficiency}) — sharding's model-time tax regressed"
                ));
            }
        }
        for side in ["before", "after"] {
            let s = row.get(side).ok_or_else(|| missing(side))?;
            for f in [
                "model_ms",
                "wall_ms",
                "thread_executions",
                "launches",
                "graph_replays",
                "launch_overhead_ms",
                "iterations",
            ] {
                s.get(f)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| missing(&format!("{side}.{f}")))?;
            }
            let num = |f: &str| s.get(f).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let (wall, model) = (num("wall_ms"), num("model_ms"));
            // A sharded `after` side reports *concurrent* model time
            // (max over devices) but the host simulates the devices on
            // threads — with fewer cores than devices their executor
            // work serializes, so its wall budget scales with the
            // device count. `before` sides and single-device rows run
            // one device and keep the flat budget.
            let devs = if side == "after" && row_devices > 1.0 {
                row_devices
            } else {
                1.0
            };
            let ceiling = (max_wall_per_model * model + slack_ms) * devs;
            if wall > ceiling {
                return Err(format!(
                    "row {i}: {side}.wall_ms ({wall:.2}) blows the wall budget \
                     (({max_wall_per_model} x {model:.4} model ms + {slack_ms} slack) \
                     x {devs} devices = {ceiling:.2}) — the executor got slower per \
                     unit of model work"
                ));
            }
        }
        let launches = |side: &str| {
            row.get(side)
                .and_then(|s| s.get("launches"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        // The launch invariant only binds single-device rows: a sharded
        // run's conflict-resolution rounds legitimately add dispatches
        // beyond the unsharded baseline.
        if row_devices <= 1.0 && launches("after") > launches("before") {
            return Err(format!(
                "row {i}: after.launches ({}) exceeds before.launches ({}) — \
                 the captured path regressed dispatch count",
                launches("after"),
                launches("before")
            ));
        }
    }
    let pareto = doc
        .get("pareto")
        .and_then(|p| p.as_array())
        .ok_or("missing pareto array")?;
    if !quality && !pareto.is_empty() {
        return Err("quality is false but the pareto array is non-empty".into());
    }
    if quality && pareto.is_empty() {
        return Err("quality is true but the pareto array is empty".into());
    }
    // (dataset, colorer) -> (vertices, colors, thread_executions)
    let mut points = std::collections::HashMap::new();
    for (i, p) in pareto.iter().enumerate() {
        let missing = |f: &str| format!("pareto row {i}: missing or mistyped {f}");
        let colorer = p
            .get("colorer")
            .and_then(|v| v.as_str())
            .ok_or_else(|| missing("colorer"))?;
        let dataset = p
            .get("dataset")
            .and_then(|v| v.as_str())
            .ok_or_else(|| missing("dataset"))?;
        for f in [
            "vertices",
            "colors",
            "model_ms",
            "thread_executions",
            "iterations",
            "colors_before",
            "colors_after",
            "reduction_passes",
        ] {
            p.get(f)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| missing(f))?;
        }
        match p.get("verified") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!("pareto row {i}: coloring failed verification"))
            }
            _ => return Err(missing("verified")),
        }
        let num = |f: &str| p.get(f).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let (vertices, colors) = (num("vertices"), num("colors"));
        if colorer.ends_with("+reduce") {
            let (before, after) = (num("colors_before"), num("colors_after"));
            if after > before {
                return Err(format!(
                    "pareto row {i}: {colorer} increased colors ({before} -> {after}) — \
                     the reduction post-pass must never add colors"
                ));
            }
            if after != colors {
                return Err(format!(
                    "pareto row {i}: colors ({colors}) disagrees with colors_after ({after})"
                ));
            }
            if colorer == "Naumov/Color_CC+reduce"
                && vertices >= quality_min_vertices
                && after >= before
            {
                return Err(format!(
                    "pareto row {i}: the Naumov/Color_CC+reduce arm did not strictly \
                     reduce colors ({before} -> {after}) — the post-pass stopped paying off"
                ));
            }
        }
        dataset_vertices.insert(dataset.clone(), vertices);
        points.insert(
            (dataset.clone(), colorer.clone()),
            (colors, num("thread_executions")),
        );
    }
    // The committed quality gates, on every gated dataset big enough to
    // measure: greedy-grade colors at a fraction of the MIS work. Each
    // gated row must be present, so dropping one cannot switch its gate
    // off.
    for ds in &gated_datasets {
        let vertices = dataset_vertices.get(ds).copied().unwrap_or(0.0);
        if !quality || vertices < quality_min_vertices {
            continue;
        }
        let point = |colorer: &str| {
            points
                .get(&(ds.clone(), colorer.to_string()))
                .copied()
                .ok_or_else(|| format!("pareto: gated dataset {ds} lacks a {colorer} row"))
        };
        let (route_colors, route_te) = point(&route)?;
        let (anchor_colors, _) = point(&color_anchor)?;
        let (_, reference_te) = point(&work_reference)?;
        if route_colors > anchor_colors + max_extra_colors {
            return Err(format!(
                "pareto: {route} on {ds} uses {route_colors} colors, more than \
                 {anchor_colors} + {max_extra_colors} ({color_anchor}) — the route \
                 lost its greedy-grade quality"
            ));
        }
        if route_te * min_te_ratio > reference_te {
            return Err(format!(
                "pareto: {route} on {ds} executed {route_te} threads, not \
                 {min_te_ratio}x below the {work_reference} reference ({reference_te}) \
                 — the route lost its work advantage"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn before_and_after_colorings_agree_and_json_validates() {
        let report = coloring_bench_on(&ExperimentConfig::smoke(), &["ecology2"], &[], &[1], false);
        assert_eq!(report.rows.len(), 9);
        assert!(!report.quality);
        assert!(report.pareto.is_empty());
        for r in &report.rows {
            assert!(r.identical_coloring, "{} changed its coloring", r.colorer);
            assert!(r.before.model_ms > 0.0 && r.after.model_ms > 0.0);
            assert!(r.colors > 0);
            assert!(r.verified, "{} failed host verification", r.colorer);
            assert_eq!(r.devices, 1);
        }
        // Launch graphs must never regress dispatch counts, and every
        // converted iterative colorer replays one graph per iteration.
        for r in &report.rows {
            assert!(
                r.after.launches <= r.before.launches,
                "{}: after {} launches vs before {}",
                r.colorer,
                r.after.launches,
                r.before.launches
            );
            if r.after.graph_replays > 0 {
                // At least one replay per reported iteration (MIS replays
                // its inner-pass graph several times per outer round).
                assert!(
                    r.after.graph_replays >= r.after.iterations as u64,
                    "{}",
                    r.colorer
                );
            }
        }
        let replaying = report
            .rows
            .iter()
            .filter(|r| r.after.graph_replays > 0)
            .count();
        assert!(
            replaying >= 7,
            "only {replaying} colorers replay captured pipelines"
        );
        // The acceptance criterion's shape, at smoke scale: on the
        // road-like mesh, at least two iterative colorers drop simulated
        // thread-executions by >= 1.5x with identical colorings.
        let reduced = report
            .rows
            .iter()
            .filter(|r| {
                r.after.thread_executions > 0
                    && r.before.thread_executions as f64 >= 1.5 * r.after.thread_executions as f64
            })
            .count();
        assert!(
            reduced >= 2,
            "only {reduced} colorers saw a >=1.5x thread-execution reduction"
        );
        validate_report_json(&to_json(&report)).expect("emitted JSON validates");
    }

    #[test]
    fn sharded_rows_shrink_per_device_work_and_validate() {
        let report = coloring_bench_on(
            &ExperimentConfig::smoke(),
            &[],
            &["ecology2"],
            &[2, 4],
            false,
        );
        // One sharded row per GPU colorer (9 in the Figure 1 legend,
        // minus the host greedy) per requested device count.
        assert_eq!(report.rows.len(), 16);
        assert_eq!(report.devices, 4);
        for counts in [2usize, 4] {
            assert_eq!(
                report.rows.iter().filter(|r| r.devices == counts).count(),
                8,
                "expected one {counts}-way row per GPU colorer"
            );
        }
        for r in &report.rows {
            assert!(r.verified, "{} sharded coloring failed verify", r.colorer);
            assert!(
                r.conflict_rounds <= MAX_CONFLICT_ROUNDS,
                "{} blew the round cap",
                r.colorer
            );
            assert!(r.halo_bytes > 0, "{} exchanged no halo data", r.colorer);
            assert!(
                r.halo_bytes_delta > 0 && r.halo_bytes_delta < r.halo_bytes,
                "{}: delta traffic {} must be nonzero and below full replication {}",
                r.colorer,
                r.halo_bytes_delta,
                r.halo_bytes
            );
            assert!(
                r.sharded_efficiency > 0.0,
                "{} reported no sharding tax",
                r.colorer
            );
            assert!(
                (0.0..=1.0).contains(&r.overlap_ratio),
                "{}: overlap_ratio {} out of range",
                r.colorer,
                r.overlap_ratio
            );
            assert!(
                r.after.thread_executions < r.before.thread_executions,
                "{}: per-device max {} did not shrink below single-device {}",
                r.colorer,
                r.after.thread_executions,
                r.before.thread_executions
            );
        }
        validate_report_json(&to_json(&report)).expect("sharded JSON validates");
    }

    const MINI: &str = r#"{"schema": "gc-bench-coloring/v7", "scale": 0.002, "seed": 42, "devices": 1, "quality": false,
      "wall_budget": {"max_wall_per_model": 250.0, "slack_ms": 50.0},
      "shard_budget": {"max_efficiency": 1.5, "min_vertices": 50000, "max_devices": 4},
      "quality_budget": {"route": "Naumov/Color_CC+reduce", "color_anchor": "CPU/Color_Greedy", "max_extra_colors": 0, "work_reference": "GraphBLAST/Color_MIS", "min_te_ratio": 3, "min_vertices": 50000, "datasets": ["ecology2", "G3_circuit"]},
      "rows": [{"colorer": "X", "dataset": "d", "vertices": 1, "edges": 0, "colors": 1,
      "identical_coloring": true, "devices": 1, "halo_bytes": 0, "halo_bytes_delta": 0, "overlap_ratio": 0.0, "sharded_efficiency": 0.0, "conflict_rounds": 0, "verified": true,
      "before": {"model_ms": 1.0, "wall_ms": 1.0, "thread_executions": 1, "launches": 2, "graph_replays": 0, "launch_overhead_ms": 0.2, "iterations": 1},
      "after": {"model_ms": 1.0, "wall_ms": 1.0, "thread_executions": 1, "launches": 1, "graph_replays": 1, "launch_overhead_ms": 0.1, "iterations": 1}}],
      "pareto": []}"#;

    #[test]
    fn validator_accepts_minimal_document_and_rejects_mutations() {
        validate_report_json(MINI).expect("minimal document validates");
        assert!(validate_report_json("not json").is_err());
        assert!(validate_report_json("{}").is_err());
        assert!(validate_report_json(
            &MINI.replace("gc-bench-coloring/v7", "gc-bench-coloring/v6")
        )
        .is_err());
        assert!(validate_report_json(&MINI.replace(" \"quality\": false,\n", "\n")).is_err());
        assert!(validate_report_json(&MINI.replace(",\n      \"pareto\": []", "")).is_err());
        // quality: true promises pareto points; an empty sweep is a
        // malformed artifact, not a passing one.
        assert!(
            validate_report_json(&MINI.replace("\"quality\": false", "\"quality\": true")).is_err()
        );
        assert!(validate_report_json(&MINI.replace(
            "\"wall_budget\": {\"max_wall_per_model\": 250.0, \"slack_ms\": 50.0},",
            ""
        ))
        .is_err());
        assert!(validate_report_json(&MINI.replace(
            "\"shard_budget\": {\"max_efficiency\": 1.5, \"min_vertices\": 50000, \
             \"max_devices\": 4},",
            ""
        ))
        .is_err());
        assert!(validate_report_json(&MINI.replace(
            "\"quality_budget\": {\"route\": \"Naumov/Color_CC+reduce\", \
             \"color_anchor\": \"CPU/Color_Greedy\", \"max_extra_colors\": 0, \
             \"work_reference\": \"GraphBLAST/Color_MIS\", \"min_te_ratio\": 3, \
             \"min_vertices\": 50000, \"datasets\": [\"ecology2\", \"G3_circuit\"]},",
            ""
        ))
        .is_err());
        assert!(validate_report_json(&MINI.replace("\"min_te_ratio\": 3, ", "")).is_err());
        assert!(
            validate_report_json(&MINI.replace("\"route\": \"Naumov/Color_CC+reduce\", ", ""))
                .is_err()
        );
        assert!(validate_report_json(
            &MINI.replace("\"max_wall_per_model\": 250.0", "\"max_wall_per_model\": 0")
        )
        .is_err());
        assert!(validate_report_json(
            &MINI.replace("\"max_efficiency\": 1.5", "\"max_efficiency\": 0")
        )
        .is_err());
        assert!(validate_report_json(
            &MINI.replace("\"identical_coloring\": true", "\"identical_coloring\": 1")
        )
        .is_err());
        assert!(validate_report_json(&MINI.replace("\"wall_ms\": 1.0, ", "")).is_err());
        assert!(validate_report_json(&MINI.replace("\"graph_replays\": 0, ", "")).is_err());
        assert!(validate_report_json(&MINI.replace("\"launch_overhead_ms\": 0.2, ", "")).is_err());
        assert!(validate_report_json(&MINI.replace("\"halo_bytes\": 0, ", "")).is_err());
        assert!(validate_report_json(&MINI.replace("\"halo_bytes_delta\": 0, ", "")).is_err());
        assert!(validate_report_json(&MINI.replace("\"overlap_ratio\": 0.0, ", "")).is_err());
        assert!(validate_report_json(&MINI.replace("\"sharded_efficiency\": 0.0, ", "")).is_err());
        assert!(validate_report_json(&MINI.replace("\"conflict_rounds\": 0, ", "")).is_err());
        assert!(
            validate_report_json(&MINI.replace("\"devices\": 1, \"quality\"", "\"quality\""))
                .is_err()
        );
        assert!(
            validate_report_json(&MINI.replace("\"rows\": [{", "\"rows\": [], \"x\": [{")).is_err()
        );
    }

    #[test]
    fn quality_sweep_covers_the_tier_and_validates() {
        let report = coloring_bench_on(&ExperimentConfig::smoke(), &["ecology2"], &[], &[1], true);
        assert!(report.quality);
        // 9 Figure 1 colorers + 2 quality-tier extensions + the reduce arm.
        assert_eq!(report.pareto.len(), 12);
        for p in &report.pareto {
            assert!(p.verified, "{} failed host verification", p.colorer);
            assert!(p.colors > 0 && p.model_ms > 0.0, "{}", p.colorer);
        }
        for name in [
            "Gunrock/Color_IS_SC",
            "GraphBLAST/Color_IS_SC",
            QUALITY_ROUTE,
        ] {
            assert!(
                report.pareto.iter().any(|p| p.colorer == name),
                "pareto sweep is missing {name}"
            );
        }
        let point = |name: &str| report.pareto.iter().find(|p| p.colorer == name).unwrap();
        // The reduce arm reports its work on top of its base's.
        let cc = point("Naumov/Color_CC");
        let ccr = point(QUALITY_ROUTE);
        assert_eq!(ccr.colors_before, cc.colors);
        assert_eq!(ccr.colors_after, ccr.colors);
        assert!(ccr.model_ms > cc.model_ms);
        assert!(ccr.thread_executions > cc.thread_executions);
        assert!(ccr.iterations > cc.iterations);
        // Naumov/Color_CC has the most reduction headroom; even at smoke
        // scale the post-pass must strictly reduce.
        assert!(ccr.reduction_passes >= 1);
        assert!(ccr.colors_after < ccr.colors_before);
        // The short-cutting IS variants never use more colors than their
        // round-indexed counterparts.
        assert!(point("Gunrock/Color_IS_SC").colors <= point("Gunrock/Color_IS").colors);
        assert!(point("GraphBLAST/Color_IS_SC").colors <= point("GraphBLAST/Color_IS").colors);
        validate_report_json(&to_json(&report)).expect("quality JSON validates");
    }

    #[test]
    fn validator_enforces_the_declared_shard_budget() {
        // A big sharded row (above the gate's vertex floor) whose delta
        // exchange beat full replication and whose efficiency sits under
        // the budget passes ...
        let sharded = MINI
            .replace("\"vertices\": 1,", "\"vertices\": 100000,")
            .replace(
                "\"devices\": 1, \"halo_bytes\": 0, \"halo_bytes_delta\": 0, \
                 \"overlap_ratio\": 0.0, \"sharded_efficiency\": 0.0, \"conflict_rounds\": 0",
                "\"devices\": 4, \"halo_bytes\": 1024, \"halo_bytes_delta\": 256, \
                 \"overlap_ratio\": 0.4, \"sharded_efficiency\": 1.2, \"conflict_rounds\": 2",
            );
        validate_report_json(&sharded).expect("in-budget sharded row validates");
        // ... delta traffic at or above full replication fails ...
        let fat = sharded.replace("\"halo_bytes_delta\": 256", "\"halo_bytes_delta\": 1024");
        let err = validate_report_json(&fat).unwrap_err();
        assert!(err.contains("beating full replication"), "{err}");
        // ... an efficiency above the declared budget fails ...
        let slow = sharded.replace("\"sharded_efficiency\": 1.2", "\"sharded_efficiency\": 1.6");
        let err = validate_report_json(&slow).unwrap_err();
        assert!(err.contains("exceeds the declared"), "{err}");
        // ... but the same over-budget ratio on a smoke-sized row is not
        // gated: fixed overheads dominate tiny graphs.
        let tiny = slow.replace("\"vertices\": 100000,", "\"vertices\": 1,");
        validate_report_json(&tiny).expect("small rows are exempt from the efficiency gate");
        // ... and neither is a fan-out beyond the declared max_devices:
        // strong-scaling rows past the primary fan-out are reported (and
        // still traffic-gated) but not time-gated.
        let wide = slow.replace("\"devices\": 4,", "\"devices\": 8,");
        validate_report_json(&wide).expect("wide fan-out rows are exempt from the efficiency gate");
        let wide_fat = wide.replace("\"halo_bytes_delta\": 256", "\"halo_bytes_delta\": 1024");
        let err = validate_report_json(&wide_fat).unwrap_err();
        assert!(err.contains("beating full replication"), "{err}");
    }

    #[test]
    fn validator_enforces_the_declared_wall_budget() {
        // MINI's rows run at 1.0 model ms, so the ceiling is
        // 250 * 1.0 + 50 = 300 ms; a 1-ms wall passes, a 10-second wall
        // means the executor burned ~10000x the model work and fails.
        let slow = MINI.replace(
            "\"model_ms\": 1.0, \"wall_ms\": 1.0, \"thread_executions\": 1, \"launches\": 1",
            "\"model_ms\": 1.0, \"wall_ms\": 10000.0, \"thread_executions\": 1, \"launches\": 1",
        );
        let err = validate_report_json(&slow).unwrap_err();
        assert!(err.contains("blows the wall budget"), "{err}");
        // A tighter declared budget binds harder: the same 1-ms wall
        // fails once the document only allows a 0.1-ms slack at zero
        // ratio headroom.
        let tight = MINI.replace(
            "\"max_wall_per_model\": 250.0, \"slack_ms\": 50.0",
            "\"max_wall_per_model\": 0.0001, \"slack_ms\": 0.1",
        );
        assert!(validate_report_json(&tight).is_err());
        // A sharded after side budgets per device: a 1000-ms wall that
        // fails a single-device row (ceiling 300 ms) passes at 4
        // devices (ceiling 1200 ms) — the host simulated four devices'
        // model work, serially when cores ran out.
        let slow_after = |doc: &str| {
            doc.replace(
                "\"after\": {\"model_ms\": 1.0, \"wall_ms\": 1.0",
                "\"after\": {\"model_ms\": 1.0, \"wall_ms\": 1000.0",
            )
        };
        let sharded_wall = slow_after(&MINI.replace(
            "\"devices\": 1, \"halo_bytes\": 0, \"halo_bytes_delta\": 0, \
             \"overlap_ratio\": 0.0, \"sharded_efficiency\": 0.0, \"conflict_rounds\": 0",
            "\"devices\": 4, \"halo_bytes\": 1024, \"halo_bytes_delta\": 256, \
             \"overlap_ratio\": 0.4, \"sharded_efficiency\": 1.2, \"conflict_rounds\": 2",
        ));
        validate_report_json(&sharded_wall).expect("sharded after wall budgets per device");
        assert!(validate_report_json(&slow_after(MINI)).is_err());
    }

    /// The route row of [`quality_doc`]: Naumov/Color_CC plus the
    /// post-pass, from 25 colors down to greedy's 6 at 1.2M threads.
    const ROUTE_ROW: &str = r#"
      {"colorer": "Naumov/Color_CC+reduce", "dataset": "ecology2", "vertices": 100000, "colors": 6, "model_ms": 1.8, "thread_executions": 1200000, "iterations": 8, "colors_before": 25, "colors_after": 6, "reduction_passes": 2, "verified": true},"#;

    /// A quality document whose pareto rows sit exactly at the committed
    /// acceptance numbers' shape: greedy anchor at 6 colors, MIS
    /// reference at 4M threads, and the route at 6 colors / 1.2M
    /// threads after strictly reducing.
    fn quality_doc() -> String {
        MINI.replace("\"quality\": false", "\"quality\": true")
            .replace(
                "\"pareto\": []",
                &format!(
                    r#""pareto": [{ROUTE_ROW}
      {{"colorer": "CPU/Color_Greedy", "dataset": "ecology2", "vertices": 100000, "colors": 6, "model_ms": 10.0, "thread_executions": 0, "iterations": 1, "colors_before": 0, "colors_after": 0, "reduction_passes": 0, "verified": true}},
      {{"colorer": "GraphBLAST/Color_MIS", "dataset": "ecology2", "vertices": 100000, "colors": 7, "model_ms": 1.6, "thread_executions": 4000000, "iterations": 8, "colors_before": 0, "colors_after": 0, "reduction_passes": 0, "verified": true}}]"#
                ),
            )
    }

    /// `doc` with the route row's colors (and `colors_after`) set to
    /// `colors`.
    fn route_colors(doc: &str, colors: u32) -> String {
        doc.replace(
            ROUTE_ROW,
            &ROUTE_ROW
                .replace("\"colors\": 6,", &format!("\"colors\": {colors},"))
                .replace(
                    "\"colors_after\": 6",
                    &format!("\"colors_after\": {colors}"),
                ),
        )
    }

    #[test]
    fn validator_enforces_the_declared_quality_budget() {
        let doc = quality_doc();
        validate_report_json(&doc).expect("in-budget quality document validates");
        // A route past greedy + max_extra_colors fails ...
        let off_color = route_colors(&doc, 7);
        let err = validate_report_json(&off_color).unwrap_err();
        assert!(err.contains("greedy-grade"), "{err}");
        // ... as does a route that lost its 3x work advantage ...
        let off_work = doc.replace(
            "\"thread_executions\": 1200000, \"iterations\": 8",
            "\"thread_executions\": 2000000, \"iterations\": 8",
        );
        let err = validate_report_json(&off_work).unwrap_err();
        assert!(err.contains("work advantage"), "{err}");
        // ... and a Naumov+reduce arm that stopped strictly reducing ...
        let err = validate_report_json(&route_colors(&doc, 25)).unwrap_err();
        assert!(err.contains("strictly"), "{err}");
        // ... and any reduce arm that *added* colors, anywhere.
        let err = validate_report_json(&route_colors(&doc, 26)).unwrap_err();
        assert!(err.contains("never add colors"), "{err}");
        // A gated dataset without its anchor row is malformed.
        let no_anchor = doc.replace(
            "\"CPU/Color_Greedy\", \"dataset\"",
            "\"Other\", \"dataset\"",
        );
        let err = validate_report_json(&no_anchor).unwrap_err();
        assert!(err.contains("lacks a CPU/Color_Greedy row"), "{err}");
        // Below the vertex floor none of the gates bind: smoke-scale
        // sweeps are shape-checked only.
        let small = route_colors(&doc, 25).replace("\"vertices\": 100000", "\"vertices\": 1000");
        validate_report_json(&small).expect("sub-floor rows are exempt from the quality gates");
        // Pareto rows must verify and carry every field.
        let unverified = doc.replace(
            "\"reduction_passes\": 2, \"verified\": true",
            "\"reduction_passes\": 2, \"verified\": false",
        );
        assert!(validate_report_json(&unverified).is_err());
        assert!(validate_report_json(&doc.replace("\"colors_before\": 25, ", "")).is_err());
    }

    #[test]
    fn validator_rejects_a_gated_dataset_without_its_route_row() {
        let doc = quality_doc();
        let no_route = doc.replace(ROUTE_ROW, "");
        let err = validate_report_json(&no_route).unwrap_err();
        assert!(
            err.contains("ecology2 lacks a Naumov/Color_CC+reduce row"),
            "{err}"
        );
        // The gate follows the route the budget names, not a fixed row.
        let renamed = doc.replace(
            "\"route\": \"Naumov/Color_CC+reduce\"",
            "\"route\": \"Gunrock/Color_IS_SC+reduce\"",
        );
        let err = validate_report_json(&renamed).unwrap_err();
        assert!(
            err.contains("lacks a Gunrock/Color_IS_SC+reduce row"),
            "{err}"
        );
        // A matrix row puts the dataset over the floor even when the
        // pareto array lacks it altogether.
        let no_pareto_rows = doc
            .replace(ROUTE_ROW, "")
            .replace("\"dataset\": \"ecology2\"", "\"dataset\": \"elsewhere\"");
        validate_report_json(&no_pareto_rows).expect("no gated dataset in the document");
        let gated_matrix = no_pareto_rows.replace(
            "\"colorer\": \"X\", \"dataset\": \"d\", \"vertices\": 1,",
            "\"colorer\": \"X\", \"dataset\": \"G3_circuit\", \"vertices\": 100000,",
        );
        let err = validate_report_json(&gated_matrix).unwrap_err();
        assert!(err.contains("G3_circuit lacks a"), "{err}");
    }

    #[test]
    fn validator_rejects_unverified_rows_and_blown_round_caps() {
        let unverified = MINI.replace("\"verified\": true", "\"verified\": false");
        let err = validate_report_json(&unverified).unwrap_err();
        assert!(err.contains("failed verification"), "{err}");

        let blown = MINI.replace("\"conflict_rounds\": 0", "\"conflict_rounds\": 65");
        let err = validate_report_json(&blown).unwrap_err();
        assert!(err.contains("exceeds the cap"), "{err}");
    }

    #[test]
    fn validator_rejects_launch_count_regressions_only_at_one_device() {
        // after.launches > before.launches means a captured pipeline
        // dispatched more than the baseline it was meant to shrink.
        let bad = MINI.replace(
            "\"launches\": 1, \"graph_replays\": 1",
            "\"launches\": 3, \"graph_replays\": 1",
        );
        let err = validate_report_json(&bad).unwrap_err();
        assert!(err.contains("exceeds before.launches"), "{err}");
        // The same counters on a sharded row are legitimate: conflict
        // resolution adds dispatches the single-device baseline lacks.
        let sharded_ok = bad.replace(
            "\"devices\": 1, \"halo_bytes\": 0, \"halo_bytes_delta\": 0",
            "\"devices\": 2, \"halo_bytes\": 64, \"halo_bytes_delta\": 16",
        );
        validate_report_json(&sharded_ok).expect("sharded rows may add launches");
    }
}
