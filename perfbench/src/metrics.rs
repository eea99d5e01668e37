//! The metric catalog and the result line.
//!
//! Each per-layer metric carries its prediction: the end-to-end metric
//! it should move, the workload where it moves, and where it should stay
//! flat. A later change that claims a gain on one layer is checked
//! against these.

use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer metrics: `"<workload> <end-to-end metric>"` it moves.
    pub moves: &'static str,
    /// Per-layer metrics: workloads where it should stay flat.
    pub flat: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
        flat: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    flat: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
        flat,
    }
}

/// Reported by every untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p90_ms", "ms", "lower", 0.25),
    e2e("colors_mean", "count", "lower", 0.1),
    e2e("model_ms_mean", "ms", "lower", 0.05),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("ok_ratio", "ratio", "higher", 0.01),
];

/// Slugs of the colorers the `cold` session runs, by display name.
pub const COLORERS: [(&str, &str); 4] = [
    ("Naumov/Color_CC", "naumov_cc"),
    ("Gunrock/Color_IS", "gunrock_is"),
    ("GraphBLAST/Color_MIS", "graphblast_mis"),
    ("Hybrid/Color_JP", "hybrid_jp"),
];

const COLD_OPS: &str = "cold ops_per_s";
const NOT_WARM: &str = "warm";

/// Reported by every traced run, for every workload.
pub const PER_LAYER: &[Metric] = &[
    // gc-net
    layer(
        "net.submit_decode_ms",
        "ms",
        "lower",
        "cold latency_p50_ms",
        "warm mutate sharded",
    ),
    layer(
        "net.submit_bytes",
        "bytes",
        "lower",
        "cold latency_p50_ms",
        "warm mutate sharded",
    ),
    layer(
        "net.result_decode_ms",
        "ms",
        "lower",
        "warm latency_p50_ms",
        "mutate sharded",
    ),
    layer(
        "net.result_bytes",
        "bytes",
        "lower",
        "warm latency_p50_ms",
        "mutate sharded",
    ),
    layer(
        "net.overhead_ms",
        "ms",
        "lower",
        "warm latency_p50_ms",
        "cold",
    ),
    // gc-service
    layer("service.policy_ms", "ms", "lower", "warm ops_per_s", ""),
    layer(
        "service.hit_ms",
        "ms",
        "lower",
        "warm ops_per_s",
        "cold sharded",
    ),
    layer(
        "service.fingerprint_ms",
        "ms",
        "lower",
        "cold latency_p50_ms",
        "warm mutate sharded",
    ),
    layer(
        "service.verify_ms",
        "ms",
        "lower",
        "cold mutate latency_p50_ms",
        "warm",
    ),
    layer(
        "service.hit_ratio",
        "ratio",
        "higher",
        "warm mutate ops_per_s",
        "cold sharded",
    ),
    // gc-core
    layer("core.color_ms.naumov_cc", "ms", "lower", COLD_OPS, NOT_WARM),
    layer(
        "core.color_ms.gunrock_is",
        "ms",
        "lower",
        COLD_OPS,
        NOT_WARM,
    ),
    layer(
        "core.color_ms.graphblast_mis",
        "ms",
        "lower",
        COLD_OPS,
        NOT_WARM,
    ),
    layer("core.color_ms.hybrid_jp", "ms", "lower", COLD_OPS, NOT_WARM),
    layer(
        "core.iterations.naumov_cc",
        "count",
        "lower",
        COLD_OPS,
        NOT_WARM,
    ),
    layer(
        "core.iterations.gunrock_is",
        "count",
        "lower",
        COLD_OPS,
        NOT_WARM,
    ),
    layer(
        "core.iterations.graphblast_mis",
        "count",
        "lower",
        COLD_OPS,
        NOT_WARM,
    ),
    layer(
        "core.iterations.hybrid_jp",
        "count",
        "lower",
        COLD_OPS,
        NOT_WARM,
    ),
    layer("core.reduce_ms", "ms", "lower", COLD_OPS, NOT_WARM),
    layer("core.reduce_passes", "count", "lower", COLD_OPS, NOT_WARM),
    // gc-vgpu
    layer("vgpu.launches", "count", "lower", COLD_OPS, "warm mutate"),
    layer(
        "vgpu.thread_executions",
        "count",
        "lower",
        COLD_OPS,
        "warm mutate",
    ),
    layer(
        "vgpu.kernel_bytes",
        "bytes",
        "lower",
        COLD_OPS,
        "warm mutate",
    ),
    layer(
        "vgpu.kernel_atomics",
        "count",
        "lower",
        COLD_OPS,
        "warm mutate",
    ),
    layer(
        "vgpu.launch_overhead_ms",
        "ms",
        "lower",
        COLD_OPS,
        "warm mutate",
    ),
    layer(
        "vgpu.pool_hit_ratio",
        "ratio",
        "higher",
        COLD_OPS,
        "warm mutate",
    ),
    layer(
        "vgpu.wall_per_model",
        "ratio",
        "lower",
        COLD_OPS,
        "warm mutate",
    ),
    // gc-graph
    layer(
        "graph.delta_apply_ms",
        "ms",
        "lower",
        "mutate latency_p50_ms",
        "cold",
    ),
    layer(
        "graph.partition_ms",
        "ms",
        "lower",
        "sharded latency_p50_ms",
        "cold warm mutate",
    ),
    layer("graph.generate_ms", "ms", "lower", "all setup_s", ""),
    // gc-shard
    layer(
        "shard.run_ms",
        "ms",
        "lower",
        "sharded latency_p50_ms",
        "cold warm mutate",
    ),
    layer(
        "shard.conflict_rounds",
        "count",
        "lower",
        "sharded latency_p50_ms",
        "cold warm mutate",
    ),
    layer(
        "shard.halo_bytes_delta",
        "bytes",
        "lower",
        "sharded latency_p50_ms",
        "cold warm mutate",
    ),
    layer(
        "shard.overlap_ratio",
        "ratio",
        "higher",
        "sharded model_ms_mean",
        "cold warm mutate",
    ),
    layer(
        "shard.max_device_thread_executions",
        "count",
        "lower",
        "sharded model_ms_mean",
        "cold warm mutate",
    ),
    layer(
        "shard.repair_ms",
        "ms",
        "lower",
        "mutate latency_p50_ms",
        "cold warm sharded",
    ),
    layer(
        "shard.repair_rounds",
        "count",
        "lower",
        "mutate latency_p50_ms",
        "cold warm sharded",
    ),
    layer(
        "shard.repair_thread_executions",
        "count",
        "lower",
        "mutate latency_p50_ms",
        "cold warm sharded",
    ),
    // Client-observed op time the layer spans above do not cover.
    layer("unattributed_ms", "ms", "lower", "all latency_p50_ms", ""),
    // The cost of tracing itself: recording one span, and span recording
    // per op as a share of the op's client-observed time.
    layer("trace.span_cost_us", "us", "lower", "", "all"),
    layer("trace.overhead_ratio", "ratio", "lower", "", "all"),
];

fn find(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// The catalog's own copy of `name`.
pub fn catalog_name(name: &str) -> &'static str {
    find(name).name
}

/// The unit the catalog declares for `name`.
pub fn unit_of(name: &str) -> &'static str {
    find(name).unit
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The benchmark's last output line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Checks that exactly the metrics of `catalog` are present and finite.
    pub fn check_against(&self, catalog: &[Metric]) -> Result<(), String> {
        for m in catalog {
            if !valid_name(m.name) {
                return Err(format!(
                    "metric name {} has characters outside [A-Za-z0-9_.-]",
                    m.name
                ));
            }
            match self.metrics.get(m.name) {
                None => return Err(format!("metric {} missing", m.name)),
                Some(v) if !v.is_finite() => return Err(format!("metric {} is {v}", m.name)),
                Some(_) => {}
            }
        }
        if self.metrics.len() != catalog.len() {
            return Err("report carries metrics outside the catalog".into());
        }
        Ok(())
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(*value),
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal, with a fraction so JSON readers keep it a
/// float; non-finite values (never expected) become 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".into();
    }
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "bad unit {}",
                m.unit
            );
        }
        assert!(!valid_name("core.color_ms.Naumov/Color_CC"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let doc = include_str!("../../BENCHMARK.json");
        for (section, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = doc
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, catalog.len(), "{section} entry count");
            for m in catalog {
                let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                assert!(body.contains(&entry), "{section} lacks {entry}");
                assert!(body.contains(&format!("\"better\": \"{}\"", m.better)));
                if let Some(bound) = m.bound {
                    let with_bound =
                        format!("{entry}, \"better\": \"{}\", \"bound\": {bound}", m.better);
                    assert!(body.contains(&with_bound), "{section} lacks {with_bound}");
                }
            }
        }
    }

    #[test]
    fn report_json_prints_every_metric_with_its_unit() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.metrics.insert("setup_s", 1.25);
        r.metrics.insert("colors_mean", 7.0);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"colors_mean\": {\"value\": 7.0, \"unit\": \"count\"}, \
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(r.check_against(END_TO_END).is_err());
    }
}
