//! RGG scaling sweep at paper extents (`repro scale-sweep`).
//!
//! Figure 4's question is how the implementations scale as the DIMACS10
//! `rgg_n_2_{15..24}_s0` family doubles: vertex count grows 2x per
//! step while the average degree creeps up slowly, so a well-behaved
//! colorer's model time should roughly double per scale step too. The
//! sweep runs a representative colorer subset ([`SWEEP_COLORERS`]: one
//! Gunrock, one GraphBLAST, one Naumov) over the full requested scale
//! range on K40c devices. The profiler keeps per-kernel running totals,
//! so its memory stays bounded however many launches a cell issues;
//! together with the banded-parallel RGG generator that is what makes
//! the full paper range up to scale 24 (16.8M vertices, ~150M
//! undirected edges) tractable on the host executor.
//!
//! Every row's coloring is verified proper on the host before it is
//! emitted; `validate_report_json` refuses a document with an
//! unverified row, a scale gap, or a row whose model throughput
//! (edges per model second) collapsed by more than 100x against the
//! same colorer's best — the scale-independence regression the sweep
//! exists to catch. `repro scale-sweep` writes the document committed
//! as `BENCH_scale.json`; `repro bench-check` dispatches on the schema
//! field and re-validates it in CI.

use std::time::Instant;

use gc_core::runner::{colorer_by_name, Colorer};
use gc_core::verify::is_proper;
use gc_vgpu::Device;

/// The document's `schema` field.
pub const SCHEMA: &str = "gc-bench-scale/v1";

/// The colorers the sweep runs: one per framework family of Figure 1,
/// chosen for contrasting scaling shapes (hash proposals, ordered
/// independent sets, and counting-based JPL).
pub const SWEEP_COLORERS: [&str; 3] =
    ["Gunrock/Color_IS", "GraphBLAST/Color_IS", "Naumov/Color_CC"];

/// Throughput-collapse bound: a colorer's worst edges-per-model-second
/// across the sweep may not fall more than this factor below its best.
pub const MAX_THROUGHPUT_COLLAPSE: f64 = 100.0;

/// One colorer x scale cell of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    pub colorer: String,
    /// RGG scale exponent (`n = 2^scale`).
    pub scale: u32,
    pub vertices: usize,
    pub edges: usize,
    pub avg_degree: f64,
    pub colors: u32,
    pub iterations: u32,
    pub model_ms: f64,
    pub wall_ms: f64,
    pub thread_executions: u64,
    pub launches: u64,
    /// Millions of (undirected) edges per simulated second — the
    /// throughput figure the scaling argument is made in.
    pub model_mteps: f64,
    /// The coloring verified proper on the host.
    pub verified: bool,
}

/// Full sweep outcome.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    pub seed: u64,
    pub min_scale: u32,
    pub max_scale: u32,
    /// Rows grouped per colorer, ascending scale within each.
    pub rows: Vec<ScaleRow>,
}

/// Runs one colorer at one scale on a fresh K40c device.
fn sweep_cell(colorer: &Colorer, scale: u32, seed: u64) -> ScaleRow {
    let g = gc_datasets::rgg_generate(scale, seed);
    let dev = Device::k40c();
    let t0 = Instant::now();
    let r = colorer
        .run_on_device(&dev, &g, seed)
        .expect("sweep colorers are GPU implementations");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let model_mteps = if r.model_ms > 0.0 {
        g.num_edges() as f64 / (r.model_ms / 1e3) / 1e6
    } else {
        0.0
    };
    ScaleRow {
        colorer: colorer.name().to_string(),
        scale,
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        avg_degree: g.avg_degree(),
        colors: r.num_colors,
        iterations: r.iterations,
        model_ms: r.model_ms,
        wall_ms,
        thread_executions: r.profile.as_ref().map_or(0, |p| p.thread_executions),
        launches: r.kernel_launches,
        model_mteps,
        verified: is_proper(&g, r.coloring.as_slice()).is_ok(),
    }
}

/// Runs the sweep over `min_scale..=max_scale` for [`SWEEP_COLORERS`].
pub fn scale_sweep(min_scale: u32, max_scale: u32, seed: u64) -> ScaleReport {
    let (min_scale, max_scale) = (min_scale.min(max_scale), min_scale.max(max_scale));
    let mut rows = Vec::new();
    for name in SWEEP_COLORERS {
        let colorer = colorer_by_name(name).expect("sweep colorer registered");
        for scale in min_scale..=max_scale {
            rows.push(sweep_cell(&colorer, scale, seed));
        }
    }
    ScaleReport {
        seed,
        min_scale,
        max_scale,
        rows,
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes a report as a `gc-bench-scale/v1` JSON document.
pub fn to_json(report: &ScaleReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"min_scale\": {},\n", report.min_scale));
    out.push_str(&format!("  \"max_scale\": {},\n", report.max_scale));
    out.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"colorer\": \"{}\", \"scale\": {}, \"vertices\": {}, \"edges\": {}, \
             \"avg_degree\": {:.3}, \"colors\": {}, \"iterations\": {}, \
             \"model_ms\": {:.4}, \"wall_ms\": {:.4}, \"thread_executions\": {}, \
             \"launches\": {}, \"model_mteps\": {:.3}, \"verified\": {}}}{}\n",
            esc(&r.colorer),
            r.scale,
            r.vertices,
            r.edges,
            r.avg_degree,
            r.colors,
            r.iterations,
            r.model_ms,
            r.wall_ms,
            r.thread_executions,
            r.launches,
            r.model_mteps,
            r.verified,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `gc-bench-scale/v1` document: schema shape, every row
/// verified with positive model time and `2^scale` vertices, each
/// sweep colorer covering the declared scale range contiguously, and
/// no colorer's model throughput collapsing more than
/// [`MAX_THROUGHPUT_COLLAPSE`]x across the sweep.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    use gc_telemetry::json::{parse, Json};
    let doc = parse(text)?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == SCHEMA => {}
        other => return Err(format!("schema must be {SCHEMA:?}, got {other:?}")),
    }
    let top = |f: &str| {
        doc.get(f)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("missing numeric {f}"))
    };
    top("seed")?;
    let min_scale = top("min_scale")?;
    let max_scale = top("max_scale")?;
    if min_scale > max_scale {
        return Err(format!("min_scale {min_scale} > max_scale {max_scale}"));
    }
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("missing rows array")?;
    if rows.is_empty() {
        return Err("rows must be non-empty".into());
    }
    // colorer -> (scales seen, min/max throughput)
    let mut per_colorer: Vec<(String, Vec<u32>, f64, f64)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let missing = |f: &str| format!("row {i}: missing or mistyped {f}");
        let colorer = row
            .get("colorer")
            .and_then(|v| v.as_str())
            .ok_or_else(|| missing("colorer"))?
            .to_string();
        let num = |f: &str| {
            row.get(f)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| missing(f))
        };
        for f in [
            "avg_degree",
            "colors",
            "iterations",
            "wall_ms",
            "thread_executions",
            "launches",
        ] {
            num(f)?;
        }
        let scale = num("scale")?;
        let vertices = num("vertices")?;
        let edges = num("edges")?;
        let model_ms = num("model_ms")?;
        let mteps = num("model_mteps")?;
        match row.get("verified") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                return Err(format!("row {i}: coloring failed verification"))
            }
            _ => return Err(missing("verified")),
        }
        if !(min_scale..=max_scale).contains(&scale) {
            return Err(format!(
                "row {i}: scale {scale} outside declared range {min_scale}..={max_scale}"
            ));
        }
        if vertices != (1u64 << scale as u32) as f64 {
            return Err(format!("row {i}: vertices ({vertices}) is not 2^{scale}"));
        }
        if edges <= 0.0 || model_ms <= 0.0 || mteps <= 0.0 {
            return Err(format!(
                "row {i}: edges/model_ms/model_mteps must all be positive"
            ));
        }
        match per_colorer.iter_mut().find(|(c, ..)| *c == colorer) {
            Some((_, scales, lo, hi)) => {
                scales.push(scale as u32);
                *lo = lo.min(mteps);
                *hi = hi.max(mteps);
            }
            None => per_colorer.push((colorer, vec![scale as u32], mteps, mteps)),
        }
    }
    for (colorer, mut scales, lo, hi) in per_colorer {
        scales.sort_unstable();
        scales.dedup();
        let want: Vec<u32> = (min_scale as u32..=max_scale as u32).collect();
        if scales != want {
            return Err(format!(
                "{colorer}: scales {scales:?} do not cover {min_scale}..={max_scale} contiguously"
            ));
        }
        if hi > lo * MAX_THROUGHPUT_COLLAPSE {
            return Err(format!(
                "{colorer}: model throughput collapsed {:.1}x across the sweep \
                 (best {hi:.2} MTEPS, worst {lo:.2}) — scaling regressed",
                hi / lo
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_verified_and_json_validates() {
        // Tiny scales keep the test fast; the committed artifact runs
        // the paper range.
        let report = scale_sweep(8, 10, 42);
        assert_eq!(report.rows.len(), 3 * SWEEP_COLORERS.len());
        for r in &report.rows {
            assert!(r.verified, "{} scale {} unverified", r.colorer, r.scale);
            assert_eq!(r.vertices, 1 << r.scale);
            assert!(r.model_ms > 0.0 && r.model_mteps > 0.0);
            assert!(r.thread_executions > 0, "{} lost work counters", r.colorer);
        }
        // Model time grows with scale for every colorer (2x vertices
        // per step must cost more simulated time).
        for name in SWEEP_COLORERS {
            let times: Vec<f64> = report
                .rows
                .iter()
                .filter(|r| r.colorer == name)
                .map(|r| r.model_ms)
                .collect();
            assert!(
                times.windows(2).all(|w| w[1] > w[0]),
                "{name}: model times not increasing: {times:?}"
            );
        }
        validate_report_json(&to_json(&report)).expect("emitted JSON validates");
    }

    #[test]
    fn validator_rejects_mutations() {
        let good = to_json(&scale_sweep(8, 9, 42));
        validate_report_json(&good).unwrap();
        assert!(validate_report_json(&good.replace("gc-bench-scale/v1", "v0")).is_err());
        assert!(
            validate_report_json(&good.replace("\"verified\": true", "\"verified\": false"))
                .is_err()
        );
        // A scale gap: drop every scale-9 row by widening the declared
        // range instead (9..=10 with only scale 8 and 9 present).
        assert!(
            validate_report_json(&good.replace("\"max_scale\": 9", "\"max_scale\": 10")).is_err()
        );
    }
}
