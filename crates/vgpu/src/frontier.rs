//! Vertex frontiers: the active set every iterative kernel launches over.

use crate::primitives::{compact_indices_fused, compact_values_fused};
use crate::{Device, DeviceBuffer, ThreadCtx};

/// A device-resident set of active vertex (row) indices.
///
/// `All(n)` is the dense identity frontier `0..n` (free to enumerate:
/// the index *is* the thread id); `Sparse` is an explicit ascending list
/// produced by [`Frontier::contract`]. Both graph frameworks launch
/// their frontier-restricted kernels over one of these, and the
/// colorers' round loop contracts it every round.
pub enum Frontier {
    /// All vertices `0..n` are active.
    All(usize),
    /// Exactly the listed vertices are active (ascending, deduplicated).
    Sparse(DeviceBuffer<u32>),
}

impl Frontier {
    /// The full-graph frontier.
    pub fn all(n: usize) -> Self {
        Frontier::All(n)
    }

    /// A frontier from an explicit host list (unmetered; test setup).
    pub fn from_vec(items: Vec<u32>) -> Self {
        Frontier::Sparse(DeviceBuffer::from_slice(&items))
    }

    /// A frontier uploaded through the device (metered).
    pub fn upload(dev: &Device, items: &[u32]) -> Self {
        Frontier::Sparse(dev.upload(items))
    }

    /// Number of active items (host-known: the compaction that built a
    /// `Sparse` frontier returns its exact length, which is what fuses
    /// convergence checks into the contraction).
    pub fn len(&self) -> usize {
        match self {
            Frontier::All(n) => *n,
            Frontier::Sparse(b) => b.len(),
        }
    }

    /// Whether the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metered in-kernel lookup of the `i`-th active vertex. Kernels map
    /// thread `i` to slot `i`, so lane `l` reads `base + l` — coalesced
    /// by construction, billed through [`ThreadCtx::read_seq`].
    #[inline]
    pub fn item(&self, t: &mut ThreadCtx, i: usize) -> u32 {
        match self {
            Frontier::All(_) => i as u32,
            Frontier::Sparse(b) => t.read_seq(b, i),
        }
    }

    /// Unmetered item lookup, for values a kernel receives by warp
    /// shuffle rather than a fresh memory load.
    #[inline]
    pub fn item_unmetered(&self, i: usize) -> u32 {
        match self {
            Frontier::All(_) => i as u32,
            Frontier::Sparse(b) => b.get(i),
        }
    }

    /// Host-side snapshot of the active list (unmetered; tests).
    pub fn to_vec(&self) -> Vec<u32> {
        match self {
            Frontier::All(n) => (0..*n as u32).collect(),
            Frontier::Sparse(b) => b.to_vec(),
        }
    }

    /// Contracts the frontier to the items whose predicate holds,
    /// through the single-kernel fused compaction (predicate, scan and
    /// scatter in one launch — see
    /// [`crate::primitives::compact_indices_fused`]). The result's
    /// length is the surviving count, so callers use it directly as
    /// their convergence test instead of a separate full-width count
    /// (bill that consumption with [`Frontier::read_len`]).
    ///
    /// `pred` runs exactly once per item, inside the metered launch.
    /// Items run concurrently, so any side effects must not race (write
    /// only the item's own slots, or use atomics).
    pub fn contract<P>(&self, dev: &Device, name: &str, pred: P) -> Frontier
    where
        P: Fn(&mut ThreadCtx, u32) -> bool + Sync,
    {
        Frontier::Sparse(match self {
            Frontier::All(n) => compact_indices_fused(dev, name, *n, |t, i| pred(t, i as u32)),
            Frontier::Sparse(items) => compact_values_fused(dev, name, items, pred),
        })
    }

    /// Metered host readback of the frontier's length: the scalar D2H
    /// transfer a host-side convergence branch consumes, billed like
    /// the full-width `reduce(+)` it replaces billed its result
    /// (GraphBLAST's host loop reads `nvals` the same way). Plain
    /// [`Frontier::len`] stays unmetered for grid sizing.
    pub fn read_len(&self, dev: &Device) -> usize {
        let n = self.len();
        let _ = dev.download(&DeviceBuffer::from_slice(&[n as u32]));
        n
    }
}

impl std::fmt::Debug for Frontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Frontier::All(n) => write!(f, "Frontier::All({n})"),
            Frontier::Sparse(b) => write!(f, "Frontier::Sparse(len={})", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    #[test]
    fn all_frontier_identity() {
        let f = Frontier::all(4);
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
        assert_eq!(f.to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sparse_frontier_lookup() {
        let d = Device::new(DeviceConfig::test_tiny());
        let f = Frontier::from_vec(vec![5, 9, 2]);
        assert_eq!(f.len(), 3);
        let out = DeviceBuffer::<u32>::zeroed(3);
        d.launch("read", 3, |t| {
            let i = t.tid();
            let v = f.item(t, i);
            t.write(&out, i, v);
        });
        assert_eq!(out.to_vec(), vec![5, 9, 2]);
    }

    #[test]
    fn empty_frontier() {
        assert!(Frontier::from_vec(vec![]).is_empty());
        assert!(Frontier::all(0).is_empty());
    }

    #[test]
    fn upload_is_metered() {
        let d = Device::new(DeviceConfig::test_tiny());
        let _ = Frontier::upload(&d, &[1, 2, 3]);
        assert_eq!(d.profile().memcpys, 1);
    }
}
