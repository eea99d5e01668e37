//! Gunrock operators: compute, advance, neighbor-reduce. (Gunrock's
//! filter is [`Frontier::contract`].)

use gc_vgpu::primitives::{exclusive_scan, segmented_reduce};
use gc_vgpu::{Device, DeviceBuffer, Frontier, Scalar, ThreadCtx};

use crate::dcsr::DeviceCsr;

/// Compute operator: applies `f` to every frontier item, one simulated
/// thread per item.
///
/// This is the paper's workhorse: *"simply assigning each active thread
/// to a vertex"*. It is deliberately **not** load balanced — a
/// high-degree vertex's serial neighbor loop stalls its warp, which the
/// cost model prices via the warp-max rule.
///
/// ```
/// use gc_graph::generators::star;
/// use gc_gunrock::{ops, DeviceCsr};
/// use gc_vgpu::{Device, DeviceBuffer, Frontier};
///
/// let dev = Device::k40c();
/// let csr = DeviceCsr::upload(&dev, &star(5));
/// let degrees = DeviceBuffer::<u32>::zeroed(5);
/// ops::compute(&dev, "degrees", &Frontier::all(5), |t, v| {
///     let d = csr.degree(t, v);
///     t.write(&degrees, v as usize, d);
/// });
/// assert_eq!(degrees.to_vec(), vec![4, 1, 1, 1, 1]);
/// ```
pub fn compute<F>(dev: &Device, name: &str, frontier: &Frontier, f: F)
where
    F: Fn(&mut ThreadCtx, u32) + Sync,
{
    dev.launch(name, frontier.len(), |t| {
        let i = t.tid();
        let v = frontier.item(t, i);
        f(t, v);
    });
}

/// Result of a load-balanced advance.
pub struct AdvanceResult {
    /// One expanded neighbor per output slot.
    pub neighbors: DeviceBuffer<u32>,
    /// For each output slot, the index *into the input frontier* of its
    /// source vertex.
    pub sources: Vec<u32>,
    /// Segment offsets: slots `seg_offsets[i]..seg_offsets[i+1]` belong
    /// to frontier item `i`.
    pub seg_offsets: Vec<usize>,
}

/// Advance operator: expands the frontier into the concatenation of its
/// items' neighbor lists, with per-edge (load-balanced) threading.
///
/// Three-kernel structure — degree computation, prefix scan, gather with
/// load-balanced search — plus the scan's own sub-kernels. The fixed cost
/// of all these launches is exactly the overhead the paper blames for the
/// AR implementation's poor showing.
pub fn advance(dev: &Device, name: &str, csr: &DeviceCsr, frontier: &Frontier) -> AdvanceResult {
    let fl = frontier.len();
    let degs = DeviceBuffer::<u32>::zeroed(fl);
    dev.launch(&format!("{name}:degree"), fl, |t| {
        let i = t.tid();
        let v = frontier.item(t, i);
        let d = csr.degree(t, v);
        t.write(&degs, i, d);
    });

    let (offsets_buf, total) = exclusive_scan(dev, &format!("{name}:scan"), &degs);
    let offs_u32 = offsets_buf.to_vec();
    let mut seg_offsets: Vec<usize> = offs_u32.iter().map(|&o| o as usize).collect();
    seg_offsets.push(total as usize);

    // Host helper: source frontier-index per output slot (the result the
    // GPU's load-balanced search computes; the search cost is billed in
    // the gather kernel below).
    let mut sources = vec![0u32; total as usize];
    for i in 0..fl {
        sources[seg_offsets[i]..seg_offsets[i + 1]].fill(i as u32);
    }

    let neighbors = DeviceBuffer::<u32>::zeroed(total as usize);
    let search_cost = (usize::BITS - fl.leading_zeros()).max(1) as u64;
    let sources_ref = &sources;
    let seg_ref = &seg_offsets;
    dev.launch(&format!("{name}:gather"), total as usize, |t| {
        let slot = t.tid();
        // Load-balanced (merge-path) search for the owning segment.
        t.charge(2 * search_cost);
        let src_idx = sources_ref[slot] as usize;
        let v = frontier.item(t, src_idx);
        let (start, _) = csr.neighbor_range(t, v);
        let nbr = csr.neighbor(t, start + (slot - seg_ref[src_idx]));
        t.write(&neighbors, slot, nbr);
    });

    AdvanceResult {
        neighbors,
        sources,
        seg_offsets,
    }
}

/// Neighbor-reduce operator: for every frontier item, reduces a mapped
/// value over its neighbor list (advance + segmented reduction).
///
/// `map(t, src, dst)` is evaluated per edge; the reduction result is
/// returned frontier-aligned.
pub fn neighbor_reduce<T, M, F>(
    dev: &Device,
    name: &str,
    csr: &DeviceCsr,
    frontier: &Frontier,
    map: M,
    identity: T,
    op: F,
) -> Vec<T>
where
    T: Scalar,
    M: Fn(&mut ThreadCtx, u32, u32) -> T + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let adv = advance(dev, name, csr, frontier);
    let total = adv.neighbors.len();
    let values = DeviceBuffer::<T>::zeroed(total);
    let sources_ref = &adv.sources;
    dev.launch(&format!("{name}:map"), total, |t| {
        let slot = t.tid();
        let src_idx = sources_ref[slot] as usize;
        let src = frontier.item(t, src_idx);
        let dst = t.read(&adv.neighbors, slot);
        let v = map(t, src, dst);
        t.write(&values, slot, v);
    });
    segmented_reduce(
        dev,
        &format!("{name}:reduce"),
        &values,
        &adv.seg_offsets,
        identity,
        op,
    )
}

/// Warp-cooperative neighbor reduction (CSR-vector style): a whole warp
/// processes each frontier item, lanes striding over the neighbor list,
/// followed by a per-item combine kernel.
///
/// This is the load-balancing middle ground between the thread-mapped
/// [`compute`] (one thread per vertex, serial neighbor loop — the
/// paper's IS kernel) and the fully edge-mapped [`advance`] pipeline
/// (the paper's AR implementation): a high-degree vertex no longer
/// stalls a warp for `degree` steps, only `ceil(degree / warp)` — at
/// the cost of one extra kernel and `warp×` the thread count. Che et
/// al., cited by the paper for GPU coloring load imbalance, use exactly
/// this family of strategies.
///
/// Returns the per-item reduction of `map(t, src, dst)` under `combine`.
pub fn neighbor_reduce_warp<T, M, F>(
    dev: &Device,
    name: &str,
    csr: &DeviceCsr,
    frontier: &Frontier,
    identity: T,
    map: M,
    combine: F,
) -> DeviceBuffer<T>
where
    T: Scalar,
    M: Fn(&mut ThreadCtx, u32, u32) -> T + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let fl = frontier.len();
    let warp = dev.config().warp_size as usize;
    let partials = DeviceBuffer::<T>::filled(fl * warp, identity);
    let combine_ref = &combine;
    // Pass 1: lane `l` of item `i`'s warp strides over neighbor slots
    // l, l+warp, l+2*warp, ... Lane 0 loads the frontier item and its
    // row extent from memory; other lanes receive them by shuffle (one
    // broadcast per warp, as a real CSR-vector kernel does). Per-lane
    // partials live in registers, modeled by unmetered staging plus the
    // shuffle-tree charge.
    dev.launch(&format!("{name}:lanes"), fl * warp, |t| {
        let gid = t.tid();
        let item = gid / warp;
        let lane = gid % warp;
        let (v, s, e) = if lane == 0 {
            let v = frontier.item(t, item);
            let (s, e) = csr.neighbor_range(t, v);
            (v, s, e)
        } else {
            t.charge(3); // receive v, s, e via shuffle broadcast
            let v = frontier.item_unmetered(item);
            let (s, e) = csr.neighbor_range_unmetered(v);
            (v, s, e)
        };
        let mut acc = identity;
        let mut slot = s + lane;
        while slot < e {
            // Lanes read consecutive slots in lockstep: coalesced.
            let dst = csr.neighbor_coalesced(t, slot);
            acc = combine_ref(acc, map(t, v, dst));
            t.charge(1);
            slot += warp;
        }
        // Warp-shuffle reduction tree.
        t.charge(6);
        partials.set(gid, acc);
    });
    // Pass 2: one thread per item folds its warp's register partials
    // (in-register on hardware; unmetered staging + ALU charge here)
    // and writes the single result to memory.
    let out = DeviceBuffer::<T>::filled(fl, identity);
    dev.launch(&format!("{name}:combine"), fl, |t| {
        let item = t.tid();
        let mut acc = identity;
        for lane in 0..warp {
            acc = combine_ref(acc, partials.get(item * warp + lane));
        }
        t.charge(warp as u64);
        t.write(&out, item, acc);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::generators::{complete, path, star};
    use gc_vgpu::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn compute_applies_to_all_items() {
        let d = dev();
        let out = DeviceBuffer::<u32>::zeroed(10);
        let f = Frontier::from_vec(vec![1, 3, 5]);
        compute(&d, "mark", &f, |t, v| {
            t.write(&out, v as usize, 7);
        });
        let got = out.to_vec();
        assert_eq!(got[1], 7);
        assert_eq!(got[3], 7);
        assert_eq!(got[5], 7);
        assert_eq!(got[0], 0);
    }

    #[test]
    fn filter_keeps_matching() {
        let d = dev();
        let f = Frontier::all(10);
        let evens = f.contract(&d, "evens", |_, v| v % 2 == 0);
        assert_eq!(evens.to_vec(), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn filter_empty_result() {
        let d = dev();
        let f = Frontier::all(5);
        let none = f.contract(&d, "none", |_, _| false);
        assert!(none.is_empty());
    }

    #[test]
    fn advance_expands_neighbors() {
        let d = dev();
        let g = star(4); // 0 is hub
        let csr = DeviceCsr::upload(&d, &g);
        let f = Frontier::from_vec(vec![0, 2]);
        let adv = advance(&d, "adv", &csr, &f);
        assert_eq!(adv.neighbors.to_vec(), vec![1, 2, 3, 0]);
        assert_eq!(adv.seg_offsets, vec![0, 3, 4]);
        assert_eq!(adv.sources, vec![0, 0, 0, 1]);
    }

    #[test]
    fn advance_on_all_frontier_yields_nnz() {
        let d = dev();
        let g = complete(4);
        let csr = DeviceCsr::upload(&d, &g);
        let adv = advance(&d, "adv", &csr, &Frontier::all(4));
        assert_eq!(adv.neighbors.len(), g.num_directed_edges());
    }

    #[test]
    fn advance_empty_frontier() {
        let d = dev();
        let csr = DeviceCsr::upload(&d, &path(4));
        let adv = advance(&d, "adv", &csr, &Frontier::from_vec(vec![]));
        assert_eq!(adv.neighbors.len(), 0);
        assert_eq!(adv.seg_offsets, vec![0]);
    }

    #[test]
    fn neighbor_reduce_max_of_ids() {
        let d = dev();
        let g = star(5);
        let csr = DeviceCsr::upload(&d, &g);
        let f = Frontier::all(5);
        let out = neighbor_reduce(&d, "nr", &csr, &f, |_, _, dst| dst, 0u32, u32::max);
        // Hub sees max leaf id 4; every leaf sees only the hub 0.
        assert_eq!(out, vec![4, 0, 0, 0, 0]);
    }

    #[test]
    fn neighbor_reduce_sums_degrees() {
        let d = dev();
        let g = complete(4);
        let csr = DeviceCsr::upload(&d, &g);
        let out = neighbor_reduce(
            &d,
            "nr",
            &csr,
            &Frontier::all(4),
            |_, _, _| 1u32,
            0,
            |a, b| a + b,
        );
        assert_eq!(out, vec![3, 3, 3, 3]);
    }

    #[test]
    fn warp_reduce_matches_thread_reduce() {
        let d = dev();
        let g = star(9);
        let csr = DeviceCsr::upload(&d, &g);
        let f = Frontier::all(9);
        let warped = neighbor_reduce_warp(&d, "nrw", &csr, &f, 0u32, |_, _, dst| dst, u32::max);
        let plain = neighbor_reduce(&d, "nr", &csr, &f, |_, _, dst| dst, 0u32, u32::max);
        assert_eq!(warped.to_vec(), plain);
    }

    #[test]
    fn warp_reduce_on_high_degree_vertex() {
        // Degree 99 > several warp widths: striding must cover all slots.
        let d = dev();
        let g = star(100);
        let csr = DeviceCsr::upload(&d, &g);
        let f = Frontier::from_vec(vec![0]);
        let out = neighbor_reduce_warp(&d, "nrw", &csr, &f, 0u32, |_, _, dst| dst, u32::max);
        assert_eq!(out.to_vec(), vec![99]);
    }

    #[test]
    fn warp_reduce_sum_complete_graph() {
        let d = dev();
        let g = complete(6);
        let csr = DeviceCsr::upload(&d, &g);
        let out = neighbor_reduce_warp(
            &d,
            "nrw",
            &csr,
            &Frontier::all(6),
            0u32,
            |_, _, _| 1,
            |a, b| a + b,
        );
        assert_eq!(out.to_vec(), vec![5; 6]);
    }

    #[test]
    fn warp_reduce_empty_frontier() {
        let d = dev();
        let csr = DeviceCsr::upload(&d, &path(3));
        let out = neighbor_reduce_warp(
            &d,
            "nrw",
            &csr,
            &Frontier::from_vec(vec![]),
            7u32,
            |_, _, dst| dst,
            u32::max,
        );
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn warp_reduce_shrinks_critical_path_on_skewed_degree() {
        // One huge-degree hub among low-degree vertices: the warp-
        // cooperative version must have a shorter critical path than
        // the thread-mapped serial loop.
        let cfg = DeviceConfig::k40c();
        let g = star(4096);
        let probe = |warped: bool| {
            let d = Device::new(cfg);
            let csr = DeviceCsr::upload(&d, &g);
            d.reset();
            if warped {
                let _ = neighbor_reduce_warp(
                    &d,
                    "w",
                    &csr,
                    &Frontier::all(g.num_vertices()),
                    0u32,
                    |_, _, dst| dst,
                    u32::max,
                );
            } else {
                compute(&d, "t", &Frontier::all(g.num_vertices()), |t, v| {
                    let (s, e) = csr.neighbor_range(t, v);
                    let mut acc = 0u32;
                    for slot in s..e {
                        acc = acc.max(csr.neighbor(t, slot));
                        t.charge(1);
                    }
                    std::hint::black_box(acc);
                });
            }
            d.elapsed_cycles()
        };
        assert!(
            probe(true) < probe(false),
            "warp-cooperative should beat thread-mapped on a star"
        );
    }

    #[test]
    fn advance_costs_more_launches_than_compute() {
        let g = star(64);
        let d1 = dev();
        let csr = DeviceCsr::upload(&d1, &g);
        d1.reset();
        let _ = advance(&d1, "adv", &csr, &Frontier::all(64));
        let adv_launches = d1.profile().launches;

        let d2 = dev();
        let csr2 = DeviceCsr::upload(&d2, &g);
        d2.reset();
        compute(&d2, "cmp", &Frontier::all(64), |t, v| {
            let (s, e) = csr2.neighbor_range(t, v);
            for slot in s..e {
                let _ = csr2.neighbor(t, slot);
            }
        });
        let cmp_launches = d2.profile().launches;
        assert!(
            adv_launches > cmp_launches,
            "{adv_launches} vs {cmp_launches}"
        );
    }
}
