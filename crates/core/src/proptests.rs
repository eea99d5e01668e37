//! Property tests: every coloring algorithm produces a proper coloring
//! on arbitrary graphs, compacted frontiers never change a coloring,
//! the compaction primitive itself returns a sorted permutation of
//! the surviving set, and the quality tier holds its bounds — the
//! short-cutting colorers stay proper and within their quality
//! guarantees, and the color-reduction post-pass never makes a
//! coloring worse under any budget, nor a longer run worse than a
//! shorter one. The local properness check agrees
//! with the full one on colorings changed only where an edge delta
//! touched the graph, and the kernels' first-fit scratch takes exactly
//! the reference mex.

use proptest::prelude::*;

use gc_graph::{apply_edge_delta, Csr, EdgeDelta, GraphBuilder};
use gc_vgpu::{primitives, Device, DeviceBuffer};

use crate::color::count_distinct;
use crate::greedy::{greedy, Ordering};
use crate::gunrock_is::{gunrock_is, IsConfig};
use crate::reduce::{mex, reduce_colors, Forbidden, ReduceBudget};
use crate::runner::{all_colorers, all_known_colorers};
use crate::verify::{is_proper, is_proper_at};

/// Iterated greedy on the host, the reference `reduce_colors` must
/// match: each pass recolors first-fit from scratch, one old class at a
/// time, visiting the highest color first on even passes and the largest
/// class first (ties to the higher color) on odd ones. Stops after a
/// pass that does not lower the count. Returns the passes run.
fn host_iterated_greedy(g: &Csr, colors: &mut [u32], max_passes: u32) -> u32 {
    let mut count = count_distinct(colors);
    if count <= 1 {
        return 0;
    }
    let mut passes = 0;
    while passes < max_passes {
        let mut classes = std::collections::BTreeMap::<u32, Vec<u32>>::new();
        for (v, &c) in colors.iter().enumerate() {
            classes.entry(c).or_default().push(v as u32);
        }
        let mut classes: Vec<(u32, Vec<u32>)> = classes.into_iter().collect();
        if passes % 2 == 0 {
            classes.sort_by_key(|(c, _)| std::cmp::Reverse(*c));
        } else {
            classes.sort_by_key(|(c, m)| (std::cmp::Reverse(m.len()), std::cmp::Reverse(*c)));
        }
        let mut fresh = vec![0u32; colors.len()];
        for (_, members) in &classes {
            for &v in members {
                let mut taken: Vec<u32> =
                    g.neighbors(v).iter().map(|&u| fresh[u as usize]).collect();
                fresh[v as usize] = crate::reduce::mex(&mut taken);
            }
        }
        colors.copy_from_slice(&fresh);
        passes += 1;
        let next = count_distinct(colors);
        if next >= count {
            break;
        }
        count = next;
    }
    passes
}

fn arb_graph() -> impl Strategy<Value = Csr> {
    (1usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..120)
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_colorers_proper_on_arbitrary_graphs(g in arb_graph(), seed in 0u64..1000) {
        for c in all_colorers() {
            let r = c.run(&g, seed);
            prop_assert!(
                is_proper(&g, r.coloring.as_slice()).is_ok(),
                "{} produced an improper coloring: {:?}",
                c.name(),
                is_proper(&g, r.coloring.as_slice())
            );
            prop_assert!(r.num_colors as usize <= g.num_vertices().max(1));
        }
    }

    #[test]
    fn greedy_respects_brooks_style_bound(g in arb_graph(), seed in 0u64..100) {
        for ord in [Ordering::Natural, Ordering::LargestDegreeFirst,
                    Ordering::SmallestDegreeLast, Ordering::Random] {
            let r = greedy(&g, ord, seed);
            prop_assert!(is_proper(&g, r.coloring.as_slice()).is_ok());
            prop_assert!(r.num_colors as usize <= g.max_degree() + 1);
        }
    }

    #[test]
    fn gpu_algorithms_are_seed_deterministic(g in arb_graph(), seed in 0u64..50) {
        for c in all_colorers() {
            let a = c.run(&g, seed);
            let b = c.run(&g, seed);
            prop_assert_eq!(
                a.coloring.as_slice(),
                b.coloring.as_slice(),
                "{} is not deterministic",
                c.name()
            );
        }
    }

    // Frontier compaction is a pure work optimization: every registered
    // colorer's paper-shaped full-width run must produce the identical
    // coloring in the identical number of iterations on arbitrary graphs.
    #[test]
    fn compacted_colorings_match_full_width(g in arb_graph(), seed in 0u64..200) {
        for c in all_known_colorers().into_iter().filter(|c| c.is_gpu()) {
            let compacted = c.run(&g, seed);
            let full = c.run_full_width(&g, seed);
            prop_assert_eq!(
                compacted.coloring.as_slice(),
                full.coloring.as_slice(),
                "{} compacted coloring diverged from full-width",
                c.name()
            );
            prop_assert_eq!(
                compacted.iterations,
                full.iterations,
                "{} compacted iteration count diverged from full-width",
                c.name()
            );
        }
    }

    // Short-cutting (first-fit into the lowest legal color) is a pure
    // quality improvement over round-indexed colors: same winner
    // schedule, never more colors, still proper.
    #[test]
    fn short_cutting_never_worse_than_round_indexed(g in arb_graph(), seed in 0u64..100) {
        let gb_sc = crate::gblas_is::gblas_is_sc(&g, seed);
        let gb_ri = crate::gblas_is::gblas_is(&g, seed);
        prop_assert!(is_proper(&g, gb_sc.coloring.as_slice()).is_ok());
        prop_assert!(
            gb_sc.num_colors <= gb_ri.num_colors,
            "GraphBLAST short-cutting used {} colors vs round-indexed {}",
            gb_sc.num_colors,
            gb_ri.num_colors
        );
        let gr_sc = gunrock_is(&g, seed, IsConfig::short_cut());
        let gr_ri = gunrock_is(&g, seed, IsConfig::min_max());
        prop_assert!(is_proper(&g, gr_sc.coloring.as_slice()).is_ok());
        prop_assert!(
            gr_sc.num_colors <= gr_ri.num_colors,
            "Gunrock short-cutting used {} colors vs round-indexed {}",
            gr_sc.num_colors,
            gr_ri.num_colors
        );
    }

    // The reduction post-pass accepts any proper coloring and any
    // budget, never increases the color count, and keeps the coloring
    // proper — even under pass- and model-ms-starved budgets. One more
    // allowed pass never ends with more colors: a run repeats the
    // shorter run's passes and each pass keeps or lowers the count. The
    // passes a run makes are exactly the host reference's.
    #[test]
    fn reduce_colors_never_worsens_any_proper_coloring(
        g in arb_graph(),
        seed in 0u64..100,
        colorer_ix in 0usize..9,
        max_passes in 0u32..6,
        budget_tenth_ms in 0u32..40,
    ) {
        let colorers = all_colorers();
        let base = colorers[colorer_ix % colorers.len()].run(&g, seed);
        let before = base.num_colors;
        let max_model_ms = f64::from(budget_tenth_ms) / 10.0;
        let mut after = Vec::new();
        for passes in [max_passes, max_passes + 1] {
            let mut colors = base.coloring.as_slice().to_vec();
            let budget = ReduceBudget { max_passes: passes, max_model_ms };
            let outcome = reduce_colors(&Device::k40c(), &g, &mut colors, budget);
            prop_assert!(
                is_proper(&g, &colors).is_ok(),
                "reduce_colors broke a proper coloring"
            );
            prop_assert_eq!(outcome.colors_before, before);
            prop_assert!(outcome.colors_after <= outcome.colors_before);
            prop_assert_eq!(outcome.colors_after, count_distinct(&colors));
            prop_assert!(outcome.passes <= passes);
            let mut host = base.coloring.as_slice().to_vec();
            prop_assert_eq!(host_iterated_greedy(&g, &mut host, outcome.passes), outcome.passes);
            prop_assert_eq!(&colors, &host, "the device passes diverged from the host reference");
            after.push(outcome.colors_after);
        }
        prop_assert!(
            after[1] <= after[0],
            "{} passes ended at {} colors, {} passes at {}",
            max_passes + 1, after[1], max_passes, after[0]
        );
    }

    // The vgpu compaction primitive underneath every frontier: its
    // output is exactly the surviving subset, ascending — i.e. a sorted
    // permutation of the active set.
    #[test]
    fn compaction_output_is_sorted_active_subset(keep in proptest::collection::vec(any::<bool>(), 0..200)) {
        let dev = Device::k40c();
        let n = keep.len();
        let flags: Vec<u32> = keep.iter().map(|&k| k as u32).collect();
        let flags_buf = DeviceBuffer::from_slice(&flags);

        let by_index = primitives::compact_indices(&dev, "prop::indices", n, |t, i| {
            t.read(&flags_buf, i) != 0
        });
        let expected: Vec<u32> = (0..n as u32).filter(|&i| keep[i as usize]).collect();
        prop_assert_eq!(by_index.to_vec(), expected.clone());

        // Contracting an explicit active list preserves relative order,
        // so compacting the full index list gives the same answer.
        let all: Vec<u32> = (0..n as u32).collect();
        let all_buf = DeviceBuffer::from_slice(&all);
        let by_value = primitives::compact_values(&dev, "prop::values", &all_buf, |t, v| {
            t.read(&flags_buf, v as usize) != 0
        });
        prop_assert_eq!(by_value.to_vec(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The bitmap color count against a hash set. The value mix reaches
    // zeros (ignored), small colors (the bitmap path) and values above
    // the length (the sort+dedup fallback).
    #[test]
    fn count_distinct_matches_hash_set(
        small in proptest::collection::vec(0u32..70, 0..150),
        large in proptest::collection::vec(any::<u32>(), 0..3),
        at in any::<usize>(),
    ) {
        let mut colors = small;
        for (i, value) in large.into_iter().enumerate() {
            colors.insert((at + i) % (colors.len() + 1), value);
        }
        let expect: std::collections::HashSet<u32> =
            colors.iter().copied().filter(|&c| c != 0).collect();
        prop_assert_eq!(count_distinct(&colors), expect.len() as u32);
    }

    // The bitmask first-fit against the sorting reference. A dense run
    // 1..=run fills the mask and, past 64, reaches the spill path; the
    // extras add zeros, duplicates and colors on both sides of 64.
    #[test]
    fn forbidden_mex_matches_the_sorting_mex(
        run in 0u32..140,
        extras in proptest::collection::vec(0u32..150, 0..80),
        large in proptest::collection::vec(any::<u32>(), 0..3),
        at in any::<usize>(),
        reversed in any::<bool>(),
    ) {
        let mut colors: Vec<u32> = (1..=run).chain(extras).chain(large).collect();
        if !colors.is_empty() {
            let k = at % colors.len();
            colors.rotate_left(k);
        }
        if reversed {
            colors.reverse();
        }
        let mut forbidden = Forbidden::new();
        for &c in &colors {
            forbidden.push(c);
        }
        prop_assert_eq!(forbidden.mex(), mex(&mut colors));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The argument the incremental-repair path rests on: `c` is proper
    // on `g`, `g'` is `g` after a random delta, and `c'` differs from
    // `c` only at the delta's touched vertices. Then checking the
    // touched vertices decides properness of the whole coloring. The
    // edits leave a vertex uncolored, copy a neighbor's color, pick an
    // arbitrary color, or take the smallest free color (a valid repair).
    #[test]
    fn local_check_matches_full_check_after_a_delta(
        g in arb_graph(),
        pairs in proptest::collection::vec((0u32..40, 0u32..40, any::<bool>()), 0..10),
        edits in proptest::collection::vec((0u8..4, any::<usize>(), 1u32..5), 0..8),
    ) {
        let n = g.num_vertices() as u32;
        let mut delta = EdgeDelta::default();
        for (u, v, insert) in pairs {
            let (u, v) = (u % n, v % n);
            if u != v {
                if insert { delta.insert.push((u, v)) } else { delta.delete.push((u, v)) }
            }
        }
        let out = apply_edge_delta(&g, &delta).unwrap();
        let h = &out.graph;
        let mut colors = greedy(&g, Ordering::Natural, 0).coloring.as_slice().to_vec();
        if !out.touched.is_empty() {
            for (kind, pick, color) in edits {
                let v = out.touched[pick % out.touched.len()];
                let nbrs = h.neighbors(v);
                colors[v as usize] = match kind {
                    0 => 0,
                    1 if !nbrs.is_empty() => colors[nbrs[pick % nbrs.len()] as usize],
                    2 => color,
                    _ => {
                        let mut taken: Vec<u32> = nbrs.iter().map(|&u| colors[u as usize]).collect();
                        crate::reduce::mex(&mut taken)
                    }
                };
            }
        }
        prop_assert_eq!(
            is_proper_at(h, &colors, &out.touched).is_ok(),
            is_proper(h, &colors).is_ok()
        );
    }
}
