//! The Table I rows and the DIMACS10 RGG scaling family.

use crate::spec::{DatasetSpec, Family, GraphType};
use gc_graph::Csr;

/// Default synthesis scale for the `repro` harness: stand-ins at 20% of
/// the paper's vertex counts. Raised 10x from the original 2% once the
/// executor fast path landed — the rankings were already stable at 2%,
/// but per-row wall times were sub-millisecond and overhead-dominated,
/// which made the committed benchmark artifact a poor perf anchor.
pub const DEFAULT_SCALE: f64 = 0.2;

/// Much smaller scale used by unit/integration tests.
pub const TEST_SCALE: f64 = 0.002;

/// The 12 real-world rows of Table I, in the paper's order.
pub fn table1_real_world() -> Vec<DatasetSpec> {
    use Family as F;
    use GraphType::*;
    vec![
        DatasetSpec {
            name: "offshore",
            paper_vertices: 260_000,
            paper_edges: 4_200_000,
            paper_avg_degree: 17.33,
            paper_diameter: "41*",
            graph_type: RealUndirected,
            family: F::Slab27 { layers: 2 },
        },
        DatasetSpec {
            name: "af_shell3",
            paper_vertices: 505_000,
            paper_edges: 17_600_000,
            paper_avg_degree: 35.84,
            paper_diameter: "485*",
            graph_type: RealUndirected,
            family: F::Shell {
                layers: 3,
                extra_per_vertex: 6,
            },
        },
        DatasetSpec {
            name: "parabolic_fem",
            paper_vertices: 1_100_000,
            paper_edges: 112_800_000,
            paper_avg_degree: 8.0,
            paper_diameter: "1536*",
            graph_type: RealUndirected,
            family: F::Mesh2d,
        },
        DatasetSpec {
            name: "apache2",
            paper_vertices: 7_400_000,
            paper_edges: 4_800_000,
            paper_avg_degree: 7.74,
            paper_diameter: "449*",
            graph_type: RealUndirected,
            family: F::Mesh3d {
                extra_per_vertex: 0.9,
            },
        },
        DatasetSpec {
            name: "ecology2",
            paper_vertices: 1_000_000,
            paper_edges: 5_000_000,
            paper_avg_degree: 6.0,
            paper_diameter: "1998*",
            graph_type: RealUndirected,
            // A small random-coupling fraction keeps the stand-in from
            // being perfectly bipartite (the pure 7-point grid is, which
            // makes natural-order greedy unrealistically optimal).
            family: F::Mesh3d {
                extra_per_vertex: 0.3,
            },
        },
        DatasetSpec {
            name: "thermal2",
            paper_vertices: 4_200_000,
            paper_edges: 483_000_000,
            paper_avg_degree: 8.0,
            paper_diameter: "1778*",
            graph_type: RealUndirected,
            family: F::Mesh2d,
        },
        DatasetSpec {
            name: "G3_circuit",
            paper_vertices: 1_600_000,
            paper_edges: 7_700_000,
            paper_avg_degree: 5.83,
            paper_diameter: "515*",
            graph_type: RealUndirected,
            family: F::Circuit {
                local: 2,
                long_fraction: 0.9,
            },
        },
        DatasetSpec {
            name: "FEM_3D_thermal2",
            paper_vertices: 148_000,
            paper_edges: 3_500_000,
            paper_avg_degree: 24.6,
            paper_diameter: "150",
            graph_type: RealDirected,
            family: F::Slab27 { layers: 4 },
        },
        DatasetSpec {
            name: "thermomech_dK",
            paper_vertices: 204_000,
            paper_edges: 2_800_000,
            paper_avg_degree: 14.93,
            paper_diameter: "647*",
            graph_type: RealDirected,
            family: F::Banded {
                bandwidth: 60,
                edges_per_vertex: 8,
            },
        },
        DatasetSpec {
            name: "ASIC_320ks",
            paper_vertices: 322_000,
            paper_edges: 1_300_000,
            paper_avg_degree: 6.68,
            paper_diameter: "45",
            graph_type: RealDirected,
            family: F::Circuit {
                local: 2,
                long_fraction: 1.0,
            },
        },
        DatasetSpec {
            name: "cage13",
            paper_vertices: 445_000,
            paper_edges: 7_500_000,
            paper_avg_degree: 17.8,
            paper_diameter: "42*",
            graph_type: RealDirected,
            family: F::Banded {
                bandwidth: 200,
                edges_per_vertex: 9,
            },
        },
        DatasetSpec {
            name: "atmosmodd",
            paper_vertices: 1_300_000,
            paper_edges: 8_800_000,
            paper_avg_degree: 7.94,
            paper_diameter: "351*",
            graph_type: RealDirected,
            family: F::Mesh3d {
                extra_per_vertex: 1.0,
            },
        },
    ]
}

/// RGG scales of Table I / Figure 3 (`rgg_n_2_{15..24}_s0`).
pub fn rgg_scales() -> Vec<u32> {
    (15..=24).collect()
}

/// The DIMACS10 name of the RGG family member at `scale` (`n = 2^scale`).
pub fn rgg_name(scale: u32) -> String {
    format!("rgg_n_2_{scale}_s0")
}

/// Parses a DIMACS10 RGG name (`rgg_n_2_<scale>_s0`) back to its scale
/// exponent. Accepts any exponent the generator can synthesize, not just
/// the Table I range.
pub fn rgg_scale_of_name(name: &str) -> Option<u32> {
    name.strip_prefix("rgg_n_2_")?
        .strip_suffix("_s0")?
        .parse()
        .ok()
}

/// Synthesizes the RGG family member at `scale`: `2^scale` uniform
/// points with the DIMACS10 connectivity radius. Deterministic in
/// `seed` — the same seed always yields the same edge list.
pub fn rgg_generate(scale: u32, seed: u64) -> Csr {
    gc_graph::generators::rgg_scale(scale, seed)
}

/// Looks up a Table I row by its SuiteSparse name.
pub fn dataset_by_name(name: &str) -> Option<DatasetSpec> {
    table1_real_world().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn twelve_rows_in_paper_order() {
        let rows = table1_real_world();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0].name, "offshore");
        assert_eq!(rows[6].name, "G3_circuit");
        assert_eq!(rows[11].name, "atmosmodd");
    }

    #[test]
    fn rgg_scales_span() {
        assert_eq!(rgg_scales(), vec![15, 16, 17, 18, 19, 20, 21, 22, 23, 24]);
    }

    #[test]
    fn lookup() {
        assert!(dataset_by_name("af_shell3").is_some());
        assert!(dataset_by_name("twitter").is_none());
    }

    #[test]
    fn rgg_names_roundtrip() {
        for s in rgg_scales() {
            assert_eq!(rgg_scale_of_name(&rgg_name(s)), Some(s));
        }
        assert_eq!(rgg_name(15), "rgg_n_2_15_s0");
        assert_eq!(rgg_scale_of_name("rgg_n_2_15_s1"), None);
        assert_eq!(rgg_scale_of_name("ecology2"), None);
    }

    #[test]
    fn rgg_generation_is_deterministic_in_seed() {
        let a = rgg_generate(10, 7);
        let b = rgg_generate(10, 7);
        assert_eq!(a, b, "same seed must yield the same edge list");
        assert_eq!(a.num_vertices(), 1 << 10);
        let c = rgg_generate(10, 8);
        assert_ne!(a, c, "different seeds should differ");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // The committed scale-sweep artifact relies on this: one seed,
        // one edge list, at every scale.
        #[test]
        fn rgg_generation_is_seed_deterministic(scale in 6u32..11, seed in 0u64..1000) {
            let a = rgg_generate(scale, seed);
            let b = rgg_generate(scale, seed);
            prop_assert_eq!(&a, &b, "same seed must reproduce the same edge list");
            prop_assert_eq!(a.num_vertices(), 1usize << scale);
        }
    }

    #[test]
    fn all_generate_at_test_scale_with_plausible_degree() {
        for d in table1_real_world() {
            let g = d.generate(TEST_SCALE, 1);
            assert!(g.num_vertices() >= 256, "{} too small", d.name);
            let deg = g.avg_degree();
            let target = d.paper_avg_degree;
            assert!(
                deg > target * 0.55 && deg < target * 1.45,
                "{}: generated degree {deg:.2} vs paper {target:.2}",
                d.name
            );
        }
    }

    #[test]
    fn af_shell3_has_highest_degree() {
        // The paper's af_shell3 slowdown discussion rests on this.
        let rows = table1_real_world();
        let shell_deg = dataset_by_name("af_shell3")
            .unwrap()
            .generate(TEST_SCALE, 1)
            .avg_degree();
        for d in &rows {
            if d.name != "af_shell3" {
                let deg = d.generate(TEST_SCALE, 1).avg_degree();
                assert!(
                    shell_deg > deg,
                    "{} degree {deg:.1} >= af_shell3 {shell_deg:.1}",
                    d.name
                );
            }
        }
    }
}
