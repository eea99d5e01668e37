//! Active-list (compacted-frontier) variants of the GraphBLAS ops.
//!
//! The paper's algorithms shrink their working set every iteration —
//! colored vertices never participate again — yet the plain dense ops
//! launch one thread per *row* regardless. A [`Frontier`] (the vgpu
//! type the Gunrock operators launch over too) is the compacted
//! complement: the device-resident list of still-active row indices,
//! contracted each iteration by [`Frontier::contract`]. List-restricted ops launch one thread per *surviving*
//! row, so per-iteration work tracks the frontier instead of `n`, and
//! the contraction's output length doubles as the convergence test (no
//! separate full-width `reduce` needed).
//!
//! This mirrors GraphBLAST's sparse-vector machinery: a real GraphBLAS
//! vector that loses most of its entries flips to a sparse
//! representation, and masked ops iterate its index list. The dense
//! `Vector` here never flips, so the list lives alongside it and the
//! `_list` ops below take the role of the sparse iteration.

use gc_vgpu::{Device, DeviceBuffer, Frontier, Scalar, ThreadCtx};

use crate::matrix::Matrix;
use crate::semiring::SemiringOps;
use crate::vector::Vector;

/// List-restricted `vxm`: `w[i] = u ⊕.⊗ A[i]` for every active `i`,
/// pull-style. Inactive rows are untouched (their `w` entries may be
/// stale — callers only read `w` at active indices).
pub fn vxm_list<T: Scalar, S: SemiringOps<T>>(
    dev: &Device,
    w: &Vector<T>,
    semiring: &S,
    u: &Vector<T>,
    a: &Matrix,
    list: &Frontier,
) {
    assert_eq!(u.size(), a.nrows(), "u/A dimension mismatch");
    assert_eq!(w.size(), a.nrows(), "w/A dimension mismatch");
    let name = format!("grb::vxm_list({})", semiring.name());
    dev.launch(&name, list.len(), |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        let mut acc = semiring.identity();
        for j in a.cols_seq(t, i) {
            let uv = u.read(t, j as usize);
            if uv != T::default() {
                acc = semiring.add(acc, semiring.map(uv));
            }
            t.charge(1);
        }
        w.write(t, i, acc);
    });
}

/// Fused list-restricted `vxm` + `eWiseAdd`: for every active `i`,
/// computes the semiring accumulator `acc = u ⊕.⊗ A[i]` exactly like
/// [`vxm_list`], then writes `w[i] = f(u[i], acc)` directly — the
/// elementwise epilogue every colorer here runs right after its `vxm`
/// (`max(weight, neighbor_max)`, `hash ⊕ neighbor_hash`, …) folds into
/// the same kernel. One launch replaces the `vxm_list` +
/// `ewise_add_list` pair, and the intermediate neighbor-reduction
/// vector disappears entirely.
pub fn vxm_apply_list<T: Scalar, S: SemiringOps<T>, F>(
    dev: &Device,
    w: &Vector<T>,
    semiring: &S,
    f: F,
    u: &Vector<T>,
    a: &Matrix,
    list: &Frontier,
) where
    F: Fn(T, T) -> T + Sync,
{
    assert_eq!(u.size(), a.nrows(), "u/A dimension mismatch");
    assert_eq!(w.size(), a.nrows(), "w/A dimension mismatch");
    let name = format!("grb::vxm_apply_list({})", semiring.name());
    dev.launch(&name, list.len(), |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        let mut acc = semiring.identity();
        for j in a.cols_seq(t, i) {
            let uv = u.read(t, j as usize);
            if uv != T::default() {
                acc = semiring.add(acc, semiring.map(uv));
            }
            t.charge(1);
        }
        let own = u.read(t, i);
        w.write(t, i, f(own, acc));
    });
}

/// List-restricted `eWiseAdd`: `w[i] = f(u[i], v[i])` for active `i`.
pub fn ewise_add_list<T: Scalar, F>(
    dev: &Device,
    w: &Vector<T>,
    f: F,
    u: &Vector<T>,
    v: &Vector<T>,
    list: &Frontier,
) where
    F: Fn(T, T) -> T + Sync,
{
    dev.launch("grb::ewise_add_list", list.len(), |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        let a = u.read(t, i);
        let b = v.read(t, i);
        w.write(t, i, f(a, b));
    });
}

/// List-restricted `apply`: `w[i] = f(u[i])` for active `i`.
pub fn apply_list<T: Scalar, F>(dev: &Device, w: &Vector<T>, f: F, u: &Vector<T>, list: &Frontier)
where
    F: Fn(T) -> T + Sync,
{
    dev.launch("grb::apply_list", list.len(), |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        let v = u.read(t, i);
        w.write(t, i, f(v));
    });
}

/// List-restricted scalar `assign`: `w[i] = value` for every active `i`
/// (unconditional — the list itself is the mask).
pub fn assign_scalar_list<T: Scalar>(dev: &Device, w: &Vector<T>, value: T, list: &Frontier) {
    dev.launch("grb::assign_list", list.len(), |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        w.write(t, i, value);
    });
}

/// List-restricted *masked* scalar assign: `w[i] = value` for active `i`
/// where `cond[i]` is truthy. The list bounds which mask entries are
/// even read, so stale mask values outside it are never observed.
pub fn assign_scalar_where<T: Scalar>(
    dev: &Device,
    w: &Vector<T>,
    cond: &Vector<T>,
    value: T,
    list: &Frontier,
) {
    dev.launch("grb::assign_where", list.len(), |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        if cond.truthy(t, i) {
            w.write(t, i, value);
        }
    });
}

/// Fused masked-assign + frontier contraction: for every active `i`
/// where `cond[i]` is truthy, writes each `(vector, value)` pair in
/// `assigns`, and returns the contracted list of actives where `cond`
/// was *not* truthy. This is the iteration epilogue every colorer ends
/// with — "retire the winners, keep the rest" — collapsed from two
/// `assign_scalar_where` launches plus a separate contraction into the
/// single fused compaction kernel.
///
/// Each active row reads `cond` and writes the assigned vectors only at
/// its own index, once, so rows never race, even when `cond` aliases an
/// assigned vector.
pub fn assign_where_compact<T: Scalar>(
    dev: &Device,
    name: &str,
    cond: &Vector<T>,
    assigns: &[(&Vector<T>, T)],
    list: &Frontier,
) -> Frontier {
    list.contract(dev, name, |t, i| {
        if cond.truthy(t, i as usize) {
            for (w, value) in assigns {
                w.write(t, i as usize, *value);
            }
            false
        } else {
            true
        }
    })
}

/// Fused *computed* masked-assign + frontier contraction: for every
/// active `i` where `cond[i]` is truthy, writes `target[i] = f(t, i)`
/// plus each constant `(vector, value)` pair in `kills`, and returns
/// the contracted list of actives where `cond` was *not* truthy. This
/// is [`assign_where_compact`] with one assigned value computed per
/// retiring row instead of being a shared constant — the shape of a
/// short-cutting colorer's epilogue, where each winner first-fits into
/// the lowest color its neighborhood permits rather than taking the
/// round index.
///
/// `f` runs once per retiring row, concurrently with the other rows'
/// writes, so it must not read anything another row's fused writes
/// change. When the truthy rows of `cond` form an independent set of
/// the matrix `f` scans (Luby winners do), no retiring row reads
/// another's `target` entry and the result is deterministic.
pub fn apply_where_compact<T: Scalar, F>(
    dev: &Device,
    name: &str,
    cond: &Vector<T>,
    target: &Vector<T>,
    f: F,
    kills: &[(&Vector<T>, T)],
    list: &Frontier,
) -> Frontier
where
    F: Fn(&mut ThreadCtx, usize) -> T + Sync,
{
    list.contract(dev, name, |t, i| {
        let i = i as usize;
        if cond.truthy(t, i) {
            let v = f(t, i);
            target.write(t, i, v);
            for (w, value) in kills {
                w.write(t, i, *value);
            }
            false
        } else {
            true
        }
    })
}

/// List-restricted `reduce`: folds `u` over the active indices only.
/// Bills one read plus one combine per active element and the scalar's
/// trip back to the host, like the full-width [`super::reduce`].
pub fn reduce_list<T: Scalar, F>(
    dev: &Device,
    identity: T,
    op: F,
    u: &Vector<T>,
    list: &Frontier,
) -> T
where
    F: Fn(T, T) -> T + Sync,
{
    let m = list.len();
    let partials: Vec<<T as Scalar>::Atomic> = (0..m).map(|_| T::new_cell(identity)).collect();
    dev.launch("grb::reduce_list", m, |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        let v = u.read(t, i);
        t.charge(1); // the tree-combine step
        T::store(&partials[k], v);
    });
    let r = partials.iter().map(|c| T::load(c)).fold(identity, &op);
    let _ = dev.download(&DeviceBuffer::from_slice(&[r]));
    r
}

/// Push-mode neighborhood scatter: for every active `i` and every
/// neighbor `j` of `i`, the value `x = via[j]` (when `0 < x < |target|`)
/// scatters `value` into `target[x]`. This is `GxB_scatter` re-rooted at
/// the frontier's adjacency — what Algorithm 4 expresses as a Boolean
/// `vxm` + `eWiseMult` + full-width scatter collapses into one kernel
/// over the frontier's edges.
pub fn scatter_adj<T: Scalar>(
    dev: &Device,
    target: &Vector<T>,
    via: &Vector<i64>,
    value: T,
    a: &Matrix,
    list: &Frontier,
) {
    let cap = target.size();
    dev.launch("grb::scatter_adj", list.len(), |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        for j in a.cols_seq(t, i) {
            let x = via.read(t, j as usize);
            if x > 0 && (x as usize) < cap {
                target.write(t, x as usize, value);
            }
            t.charge(1);
        }
    });
}

/// Push-mode neighborhood assign: `w[j] = value` for every `j` adjacent
/// to an active `i`. The push replacement for the "mark the frontier's
/// neighbors with a Boolean `vxm`, then masked-assign" pair — one kernel
/// over the frontier's edges instead of two full-width passes.
pub fn assign_adj<T: Scalar>(dev: &Device, w: &Vector<T>, value: T, a: &Matrix, list: &Frontier) {
    dev.launch("grb::assign_adj", list.len(), |t| {
        let k = t.tid();
        let i = list.item(t, k) as usize;
        for j in a.cols_seq(t, i) {
            w.write(t, j as usize, value);
            t.charge(1);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::MaxTimes;
    use gc_graph::generators::{path, star};
    use gc_vgpu::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    fn list_of(items: &[u32]) -> Frontier {
        Frontier::Sparse(DeviceBuffer::from_slice(items))
    }

    #[test]
    fn all_enumerates_domain() {
        let l = Frontier::all(4);
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
        assert_eq!(l.to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn contract_all_keeps_matching_indices() {
        let d = dev();
        let v = Vector::from_host(&d, &[3i64, 0, 7, 0, 1]);
        let l = Frontier::all(5).contract(&d, "keep_nz", |t, i| v.truthy(t, i as usize));
        assert_eq!(l.to_vec(), vec![0, 2, 4]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn contract_list_filters_in_order() {
        let d = dev();
        let v = Vector::from_host(&d, &[3i64, 0, 7, 0, 1]);
        let l = list_of(&[0, 2, 4]).contract(&d, "gt1", |t, i| v.read(t, i as usize) > 1);
        assert_eq!(l.to_vec(), vec![0, 2]);
    }

    #[test]
    fn contract_to_empty() {
        let d = dev();
        let l = list_of(&[1, 3]).contract(&d, "none", |_, _| false);
        assert!(l.is_empty());
        let l2 = l.contract(&d, "still_none", |_, _| true);
        assert!(l2.is_empty());
    }

    #[test]
    fn vxm_list_touches_only_listed_rows() {
        let d = dev();
        let a = Matrix::from_graph(&d, &path(4)); // 0-1-2-3
        let u = Vector::from_host(&d, &[10i64, 40, 20, 30]);
        let w = Vector::from_host(&d, &[-1i64, -1, -1, -1]);
        vxm_list(&d, &w, &MaxTimes, &u, &a, &list_of(&[0, 2]));
        // Rows 0 and 2 computed; rows 1 and 3 untouched.
        assert_eq!(w.to_vec(), vec![40, -1, 40, -1]);
    }

    #[test]
    fn vxm_list_all_matches_full_vxm() {
        let d = dev();
        let a = Matrix::from_graph(&d, &star(5));
        let u = Vector::from_host(&d, &[3i64, 1, 4, 1, 5]);
        let full = Vector::<i64>::new(5);
        let listed = Vector::<i64>::new(5);
        super::super::vxm(
            &d,
            &full,
            None,
            &MaxTimes,
            &u,
            &a,
            crate::desc::Descriptor::null(),
        );
        vxm_list(&d, &listed, &MaxTimes, &u, &a, &Frontier::all(5));
        assert_eq!(full.to_vec(), listed.to_vec());
    }

    #[test]
    fn ewise_and_assign_restricted_to_list() {
        let d = dev();
        let u = Vector::from_host(&d, &[1i64, 2, 3]);
        let v = Vector::from_host(&d, &[10i64, 20, 30]);
        let w = Vector::<i64>::new(3);
        ewise_add_list(&d, &w, |a, b| a + b, &u, &v, &list_of(&[1]));
        assert_eq!(w.to_vec(), vec![0, 22, 0]);
        assign_scalar_list(&d, &w, 9, &list_of(&[0, 2]));
        assert_eq!(w.to_vec(), vec![9, 22, 9]);
    }

    #[test]
    fn assign_where_respects_condition_and_list() {
        let d = dev();
        let w = Vector::<i64>::new(4);
        let cond = Vector::from_host(&d, &[1i64, 1, 0, 1]);
        assign_scalar_where(&d, &w, &cond, 5, &list_of(&[0, 2, 3]));
        // Index 1 not listed; index 2 fails the condition.
        assert_eq!(w.to_vec(), vec![5, 0, 0, 5]);
    }

    #[test]
    fn apply_list_copies_listed_entries() {
        let d = dev();
        let u = Vector::from_host(&d, &[4i64, 5, 6]);
        let w = Vector::<i64>::new(3);
        apply_list(&d, &w, |x| x, &u, &list_of(&[0, 2]));
        assert_eq!(w.to_vec(), vec![4, 0, 6]);
    }

    #[test]
    fn reduce_list_folds_active_prefix() {
        let d = dev();
        let u = Vector::from_host(&d, &[5i64, 1, 9, 2]);
        // Prefix reduce via All(limit): only the first 3 entries.
        assert_eq!(
            reduce_list(&d, i64::MAX, i64::min, &u, &Frontier::all(3)),
            1
        );
        assert_eq!(
            reduce_list(&d, 0i64, |a, b| a + b, &u, &list_of(&[0, 3])),
            7
        );
        assert_eq!(reduce_list(&d, 42i64, |a, b| a + b, &u, &list_of(&[])), 42);
    }

    #[test]
    fn scatter_adj_marks_neighbor_colors() {
        let d = dev();
        let a = Matrix::from_graph(&d, &path(4)); // 0-1-2-3
        let c = Vector::from_host(&d, &[0i64, 2, 0, 3]);
        let target = Vector::<i64>::new(6);
        // Active row 2 has neighbors 1 (color 2) and 3 (color 3).
        scatter_adj(&d, &target, &c, 1, &a, &list_of(&[2]));
        assert_eq!(target.to_vec(), vec![0, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn assign_adj_clears_neighbors() {
        let d = dev();
        let a = Matrix::from_graph(&d, &star(4)); // 0 hub
        let w = Vector::from_host(&d, &[7i64, 7, 7, 7]);
        assign_adj(&d, &w, 0, &a, &list_of(&[0]));
        assert_eq!(w.to_vec(), vec![7, 0, 0, 0]);
    }

    #[test]
    fn vxm_apply_list_matches_vxm_then_ewise() {
        let d = dev();
        let a = Matrix::from_graph(&d, &path(5));
        let u = Vector::from_host(&d, &[3i64, 9, 4, 1, 5]);
        let list = list_of(&[0, 2, 3]);
        // Two-kernel composition.
        let tmp = Vector::<i64>::new(5);
        let composed = Vector::from_host(&d, &[-1i64; 5]);
        vxm_list(&d, &tmp, &MaxTimes, &u, &a, &list);
        ewise_add_list(&d, &composed, i64::max, &u, &tmp, &list);
        // Fused single kernel.
        let fused = Vector::from_host(&d, &[-1i64; 5]);
        let launches_before = d.profile().launches;
        vxm_apply_list(&d, &fused, &MaxTimes, i64::max, &u, &a, &list);
        assert_eq!(fused.to_vec(), composed.to_vec());
        assert_eq!(d.profile().launches - launches_before, 1);
    }

    #[test]
    fn vxm_apply_list_ignoring_own_value_matches_vxm_alone() {
        let d = dev();
        let a = Matrix::from_graph(&d, &star(5));
        let u = Vector::from_host(&d, &[3i64, 1, 4, 1, 5]);
        let plain = Vector::<i64>::new(5);
        vxm_list(&d, &plain, &MaxTimes, &u, &a, &Frontier::all(5));
        let fused = Vector::<i64>::new(5);
        vxm_apply_list(
            &d,
            &fused,
            &MaxTimes,
            |_, acc| acc,
            &u,
            &a,
            &Frontier::all(5),
        );
        assert_eq!(fused.to_vec(), plain.to_vec());
    }

    #[test]
    fn assign_where_compact_retires_matching_and_returns_rest() {
        let d = dev();
        let cond = Vector::from_host(&d, &[1i64, 0, 1, 0, 1]);
        let c = Vector::<i64>::new(5);
        let weight = Vector::from_host(&d, &[10i64, 20, 30, 40, 50]);
        let list = list_of(&[0, 1, 2, 4]);
        let next = assign_where_compact(&d, "retire", &cond, &[(&c, 7), (&weight, 0)], &list);
        // Truthy actives 0, 2, 4 got both writes; index 3 was never active.
        assert_eq!(c.to_vec(), vec![7, 0, 7, 0, 7]);
        assert_eq!(weight.to_vec(), vec![0, 20, 0, 40, 0]);
        // Survivors are the actives where cond was falsy.
        assert_eq!(next.to_vec(), vec![1]);
    }

    #[test]
    fn assign_where_compact_matches_assign_where_plus_contract() {
        let d = dev();
        let cond = Vector::from_host(&d, &[0i64, 1, 1, 0, 1, 0]);
        let list = list_of(&[1, 3, 4, 5]);
        // Old three-launch epilogue.
        let w_old = Vector::<i64>::new(6);
        assign_scalar_where(&d, &w_old, &cond, 9, &list);
        let next_old = list.contract(&d, "keep", |t, i| !cond.truthy(t, i as usize));
        // Fused epilogue.
        let w_new = Vector::<i64>::new(6);
        let next_new = assign_where_compact(&d, "keep_fused", &cond, &[(&w_new, 9)], &list);
        assert_eq!(w_new.to_vec(), w_old.to_vec());
        assert_eq!(next_new.to_vec(), next_old.to_vec());
    }

    #[test]
    fn empty_list_ops_are_metered_noops() {
        let d = dev();
        let w = Vector::<i64>::new(3);
        assign_scalar_list(&d, &w, 1, &list_of(&[]));
        assert_eq!(w.to_vec(), vec![0; 3]);
        // Zero-thread launches still show up in the profile.
        assert_eq!(d.profile().by_kernel["grb::assign_list"].launches, 1);
    }
}
