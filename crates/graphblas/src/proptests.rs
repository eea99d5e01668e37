//! Property tests: GraphBLAS ops vs direct host references.

use proptest::prelude::*;

use gc_graph::GraphBuilder;
use gc_vgpu::{Device, DeviceConfig, Frontier};

use crate::desc::Descriptor;
use crate::matrix::Matrix;
use crate::ops::{
    apply_list, assign_scalar_where, assign_where_compact, ewise_add, ewise_add_list, ewise_mult,
    reduce, vxm, vxm_apply_list, vxm_list,
};
use crate::semiring::{BooleanOrAnd, MaxTimes, PlusTimes, SemiringOps};
use crate::vector::Vector;

fn dev() -> Device {
    Device::new(DeviceConfig::test_tiny())
}

fn arb_graph_and_values() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Vec<i64>)> {
    (2usize..30).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..80);
        let vals = proptest::collection::vec(-100i64..100, n);
        (Just(n), edges, vals)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vxm_max_times_matches_host((n, edges, vals) in arb_graph_and_values()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let d = dev();
        let a = Matrix::from_graph(&d, &g);
        let u = Vector::from_host(&d, &vals);
        let w = Vector::<i64>::new(n);
        vxm(&d, &w, None, &MaxTimes, &u, &a, Descriptor::null());
        let got = w.to_vec();
        for v in 0..n as u32 {
            let want = g
                .neighbors(v)
                .iter()
                .map(|&j| vals[j as usize])
                .filter(|&x| x != 0) // zeros are implicit "no value"
                .fold(SemiringOps::<i64>::identity(&MaxTimes), i64::max);
            prop_assert_eq!(got[v as usize], want, "vertex {}", v);
        }
    }

    #[test]
    fn vxm_plus_times_matches_host((n, edges, vals) in arb_graph_and_values()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let d = dev();
        let a = Matrix::from_graph(&d, &g);
        let u = Vector::from_host(&d, &vals);
        let w = Vector::<i64>::new(n);
        vxm(&d, &w, None, &PlusTimes, &u, &a, Descriptor::null());
        let got = w.to_vec();
        for v in 0..n as u32 {
            let want: i64 = g.neighbors(v).iter().map(|&j| vals[j as usize]).sum();
            prop_assert_eq!(got[v as usize], want);
        }
    }

    #[test]
    fn vxm_boolean_is_neighbor_of_truthy((n, edges, vals) in arb_graph_and_values()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let d = dev();
        let a = Matrix::from_graph(&d, &g);
        let u = Vector::from_host(&d, &vals);
        let w = Vector::<i64>::new(n);
        vxm(&d, &w, None, &BooleanOrAnd, &u, &a, Descriptor::null());
        let got = w.to_vec();
        for v in 0..n as u32 {
            let want = g.neighbors(v).iter().any(|&j| vals[j as usize] != 0) as i64;
            prop_assert_eq!(got[v as usize], want);
        }
    }

    #[test]
    fn ewise_ops_match_host(
        u in proptest::collection::vec(-50i64..50, 1..60),
        seed in any::<u64>(),
    ) {
        let n = u.len();
        let v: Vec<i64> =
            (0..n).map(|i| (gc_vgpu::rng::uniform_u32(seed, i as u32) % 100) as i64 - 50).collect();
        let d = dev();
        let uu = Vector::from_host(&d, &u);
        let vv = Vector::from_host(&d, &v);
        let add = Vector::<i64>::new(n);
        let mult = Vector::<i64>::new(n);
        ewise_add(&d, &add, None, |a, b| a.max(b), &uu, &vv, Descriptor::null());
        ewise_mult(&d, &mult, None, |a, b| a * b, &uu, &vv, Descriptor::null());
        for i in 0..n {
            prop_assert_eq!(add.get_host(i), u[i].max(v[i]));
            let want = if u[i] != 0 && v[i] != 0 { u[i] * v[i] } else { 0 };
            prop_assert_eq!(mult.get_host(i), want);
        }
    }

    #[test]
    fn reduce_matches_host(u in proptest::collection::vec(-1000i64..1000, 0..100)) {
        let d = dev();
        let uu = Vector::from_host(&d, &u);
        prop_assert_eq!(reduce(&d, 0i64, |a, b| a + b, &uu), u.iter().sum::<i64>());
        prop_assert_eq!(
            reduce(&d, i64::MIN, i64::max, &uu),
            u.iter().copied().max().unwrap_or(i64::MIN)
        );
    }

    #[test]
    fn vxm_apply_list_equals_vxm_then_ewise((n, edges, vals) in arb_graph_and_values()) {
        // The fused kernel must be observationally identical to the
        // two-kernel composition it replaces, on a random active list.
        let g = GraphBuilder::new(n).edges(edges).build();
        let d = dev();
        let a = Matrix::from_graph(&d, &g);
        let u = Vector::from_host(&d, &vals);
        let actives: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
        let list = Frontier::from_vec(actives);
        let tmp = Vector::<i64>::new(n);
        let composed = Vector::from_host(&d, &vec![-9i64; n]);
        vxm_list(&d, &tmp, &MaxTimes, &u, &a, &list);
        ewise_add_list(&d, &composed, i64::max, &u, &tmp, &list);
        let fused = Vector::from_host(&d, &vec![-9i64; n]);
        vxm_apply_list(&d, &fused, &MaxTimes, i64::max, &u, &a, &list);
        prop_assert_eq!(fused.to_vec(), composed.to_vec());
    }

    #[test]
    fn vxm_apply_list_unary_equals_vxm_then_apply((n, edges, vals) in arb_graph_and_values()) {
        // With an `f` that ignores its first argument, the fusion
        // degenerates to vxm_list + apply_list — pin that too.
        let g = GraphBuilder::new(n).edges(edges).build();
        let d = dev();
        let a = Matrix::from_graph(&d, &g);
        let u = Vector::from_host(&d, &vals);
        let list = Frontier::all(n);
        let tmp = Vector::<i64>::new(n);
        let composed = Vector::<i64>::new(n);
        vxm_list(&d, &tmp, &PlusTimes, &u, &a, &list);
        apply_list(&d, &composed, |x| x.saturating_add(1), &tmp, &list);
        let fused = Vector::<i64>::new(n);
        vxm_apply_list(&d, &fused, &PlusTimes, |_, acc| acc.saturating_add(1), &u, &a, &list);
        prop_assert_eq!(fused.to_vec(), composed.to_vec());
    }

    #[test]
    fn assign_where_compact_equals_assign_plus_contract(
        flags in proptest::collection::vec(any::<bool>(), 1..80),
        keep_every in 1usize..4,
    ) {
        // Fused retire-and-contract vs the three-launch epilogue it
        // replaces, over a random mask and a random active list.
        let n = flags.len();
        let d = dev();
        let cond_vals: Vec<i64> = flags.iter().map(|&b| b as i64).collect();
        let cond = Vector::from_host(&d, &cond_vals);
        let actives: Vec<u32> = (0..n as u32).filter(|i| (*i as usize).is_multiple_of(keep_every)).collect();
        let list = Frontier::from_vec(actives);
        let w_old = Vector::<i64>::new(n);
        let z_old = Vector::from_host(&d, &vec![5i64; n]);
        assign_scalar_where(&d, &w_old, &cond, 7, &list);
        assign_scalar_where(&d, &z_old, &cond, 0, &list);
        let next_old = list.contract(&d, "keep", |t, i| !cond.truthy(t, i as usize));
        let w_new = Vector::<i64>::new(n);
        let z_new = Vector::from_host(&d, &vec![5i64; n]);
        let next_new =
            assign_where_compact(&d, "keep_fused", &cond, &[(&w_new, 7), (&z_new, 0)], &list);
        prop_assert_eq!(w_new.to_vec(), w_old.to_vec());
        prop_assert_eq!(z_new.to_vec(), z_old.to_vec());
        prop_assert_eq!(next_new.to_vec(), next_old.to_vec());
    }

    #[test]
    fn masked_vxm_touches_only_passing_rows((n, edges, vals) in arb_graph_and_values()) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let d = dev();
        let a = Matrix::from_graph(&d, &g);
        let u = Vector::from_host(&d, &vals);
        let mask_vals: Vec<i64> = (0..n).map(|i| (i % 2) as i64).collect();
        let m = Vector::from_host(&d, &mask_vals);
        let sentinel = -777i64;
        let w = Vector::from_host(&d, &vec![sentinel; n]);
        vxm(&d, &w, Some(&m), &MaxTimes, &u, &a, Descriptor::null());
        for (i, &mv) in mask_vals.iter().enumerate() {
            if mv == 0 {
                prop_assert_eq!(w.get_host(i), sentinel);
            } else {
                prop_assert_ne!(w.get_host(i), sentinel);
            }
        }
    }
}
