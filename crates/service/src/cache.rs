//! Fingerprint-keyed LRU result cache.
//!
//! Production coloring workloads repeat: the same Jacobian sparsity
//! pattern, the same circuit netlist, the same mesh arrives again and
//! again. Every algorithm here is deterministic given (graph, seed), so
//! a repeated request can be served without recomputation. The key is a
//! 64-bit fingerprint of the CSR structure (vertex count, row offsets,
//! column indices) combined with the resolved implementation name and
//! seed — two graphs that differ anywhere in their adjacency structure
//! fingerprint differently.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Mutex;

use gc_graph::{Csr, EdgeDelta};

/// Independent mixing chains in [`graph_fingerprint`].
const LANES: usize = 4;

/// 64-bit hash of the CSR structure. Row offsets, then column indices
/// packed two per word, feed `LANES` (4) independent mixing chains
/// round-robin, so their multiply latencies overlap; the lanes then fold
/// in lane order into one chain with the lengths and the words left
/// over. The fold is sequential, not commutative, so words that trade
/// lanes still change the hash. Stable across runs (no per-process hash
/// seeding), so cache behaviour is reproducible.
pub fn graph_fingerprint(g: &Csr) -> u64 {
    let (rows, cols) = (g.row_offsets(), g.col_indices());
    let mut lanes: [Mix; LANES] = std::array::from_fn(|i| {
        Mix(Mix::new().0 ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    });
    let mut feed = |words: [u64; LANES]| {
        for (lane, w) in lanes.iter_mut().zip(words) {
            lane.write_u64(w);
        }
    };
    let mut row_words = rows.chunks_exact(LANES);
    for c in &mut row_words {
        feed(std::array::from_fn(|i| c[i] as u64));
    }
    let mut col_pairs = cols.chunks_exact(2 * LANES);
    for c in &mut col_pairs {
        feed(std::array::from_fn(|i| {
            (c[2 * i] as u64) << 32 | c[2 * i + 1] as u64
        }));
    }
    let mut h = Mix::new();
    h.write_u64(g.num_vertices() as u64);
    h.write_u64(rows.len() as u64);
    h.write_u64(cols.len() as u64);
    for &r in row_words.remainder() {
        h.write_u64(r as u64);
    }
    for &c in col_pairs.remainder() {
        h.write_u64(c as u64);
    }
    for lane in &lanes {
        h.write_u64(lane.finish());
    }
    h.finish()
}

/// Fingerprint of the graph obtained by applying `delta` to the graph
/// fingerprinted as `parent_fp` — the version-lineage chain `gc-net`
/// maintains for mutable graphs. Costs `O(|delta|)` instead of the
/// `O(E)` rehash of [`graph_fingerprint`], so a front-end can key the
/// result cache across thousands of small mutations cheaply.
///
/// Lineage fingerprints live in a different namespace than structural
/// ones: two graphs that are structurally identical but reached through
/// different delta histories fingerprint differently. That is
/// intentional — the chain identifies "this exact tracked graph at this
/// exact version", which is the only identity a mutating front-end can
/// assert without rehashing. Endpoint order within a pair does not
/// matter (pairs are normalized to `(min, max)`), but the order of
/// deltas in the history does.
pub fn lineage_fingerprint(parent_fp: u64, delta: &EdgeDelta) -> u64 {
    let mut h = Mix::new();
    h.write_u64(parent_fp);
    h.write_u64(delta.insert.len() as u64);
    h.write_u64(delta.delete.len() as u64);
    for &(u, v) in &delta.insert {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        h.write_u64((a as u64) << 32 | b as u64);
    }
    for &(u, v) in &delta.delete {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        // Distinct tag stream for deletes so insert[(a,b)] and
        // delete[(a,b)] never collide.
        h.write_u64(!((a as u64) << 32 | b as u64));
    }
    h.finish()
}

/// Full cache key: graph structure + implementation + seed + device
/// count. Sharded runs produce different (still proper) colorings than
/// single-device runs, so `devices` participates in the key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub graph_fp: u64,
    pub colorer: &'static str,
    pub seed: u64,
    pub devices: usize,
    /// `None` for a base colorer run; `Some(budget_ms)` for an entry
    /// whose coloring went through the `MinColors` color-reduction
    /// post-pass under that model-time budget. Keeping the tag in the
    /// key means reduced colorings never shadow base entries — an
    /// `Explicit` request for the same colorer must get the bit-exact
    /// base coloring back, and different budgets legitimately produce
    /// different colorings.
    pub reduce_budget_ms: Option<u64>,
}

/// Word-at-a-time hash: each `u64` is folded in by xor, then the state
/// goes through the SplitMix64 finalizer, a bijection in which every
/// input bit flips each output bit with probability about 1/2.
struct Mix(u64);

impl Mix {
    fn new() -> Self {
        Mix(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Thread-safe LRU map with bounded capacity.
///
/// Recency is tracked with a monotonically-stamped queue: each `get` or
/// `insert` pushes a fresh `(key, stamp)` entry, and eviction pops stale
/// queue entries until it finds one whose stamp matches the live map —
/// amortized O(1) per operation without a linked list. Hits never
/// evict, so the queue also drops its stale entries whenever it holds
/// more than two per live key (plus a constant): what is left is one
/// entry per key, and the sweep is paid for by the pushes since the
/// last one.
pub struct LruCache<V> {
    inner: Mutex<LruInner<V>>,
    capacity: usize,
}

struct LruInner<V> {
    map: HashMap<CacheKey, Entry<V>>,
    recency: VecDeque<(CacheKey, u64)>,
    clock: u64,
}

struct Entry<V> {
    value: V,
    stamp: u64,
}

/// Longest the recency queue may grow for a map of `live` keys before
/// its stale entries are swept.
fn queue_bound(live: usize) -> usize {
    2 * live + 16
}

impl<V> LruInner<V> {
    /// Records a touch of `key` at `stamp`, sweeping stale entries once
    /// the queue outgrows [`queue_bound`].
    fn touch(&mut self, key: CacheKey, stamp: u64) {
        self.recency.push_back((key, stamp));
        if self.recency.len() > queue_bound(self.map.len()) {
            let map = &self.map;
            self.recency
                .retain(|(k, s)| map.get(k).is_some_and(|e| e.stamp == *s));
        }
    }
}

impl<V: Clone> LruCache<V> {
    /// Capacity 0 disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                recency: VecDeque::new(),
                clock: 0,
            }),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let stamp = inner.clock;
        let hit = match inner.map.get_mut(key) {
            Some(e) => {
                e.stamp = stamp;
                Some(e.value.clone())
            }
            None => None,
        };
        if hit.is_some() {
            inner.touch(key.clone(), stamp);
        }
        hit
    }

    /// Removes `key`, returning its value if it was cached.
    pub fn remove(&self, key: &CacheKey) -> Option<V> {
        // Its recency entry goes stale and is swept like any other.
        self.inner.lock().unwrap().map.remove(key).map(|e| e.value)
    }

    pub fn insert(&self, key: CacheKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let stamp = inner.clock;
        inner.map.insert(key.clone(), Entry { value, stamp });
        inner.touch(key, stamp);
        while inner.map.len() > self.capacity {
            let Some((old_key, old_stamp)) = inner.recency.pop_front() else {
                break;
            };
            // Stale queue entry: the key was touched again later (or
            // already evicted); only a matching stamp is the true LRU.
            let is_current = inner
                .map
                .get(&old_key)
                .is_some_and(|e| e.stamp == old_stamp);
            if is_current {
                inner.map.remove(&old_key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::generators::{cycle, path};
    use proptest::prelude::*;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            graph_fp: fp,
            colorer: "T",
            seed: 0,
            devices: 1,
            reduce_budget_ms: None,
        }
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let a = graph_fingerprint(&cycle(10));
        let b = graph_fingerprint(&path(10));
        let c = graph_fingerprint(&cycle(11));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic across calls.
        assert_eq!(a, graph_fingerprint(&cycle(10)));
    }

    #[test]
    fn lineage_is_deterministic_and_order_normalized() {
        let base = graph_fingerprint(&cycle(10));
        let d = EdgeDelta {
            insert: vec![(0, 5), (2, 7)],
            delete: vec![(0, 1)],
        };
        let flipped = EdgeDelta {
            insert: vec![(5, 0), (7, 2)],
            delete: vec![(1, 0)],
        };
        assert_eq!(
            lineage_fingerprint(base, &d),
            lineage_fingerprint(base, &flipped),
            "endpoint order within a pair must not matter"
        );
        // Different parent, different delta, or swapped insert/delete
        // roles all diverge.
        assert_ne!(
            lineage_fingerprint(base, &d),
            lineage_fingerprint(!base, &d)
        );
        let swapped = EdgeDelta {
            insert: vec![(0, 1)],
            delete: vec![(0, 5), (2, 7)],
        };
        assert_ne!(
            lineage_fingerprint(base, &d),
            lineage_fingerprint(base, &swapped)
        );
        assert_ne!(
            lineage_fingerprint(base, &d),
            base,
            "a non-empty delta must move the fingerprint"
        );
    }

    #[test]
    fn recency_queue_stays_bounded_under_hits() {
        let cache = LruCache::new(1);
        cache.insert(key(1), 1);
        for _ in 0..100_000 {
            assert_eq!(cache.get(&key(1)), Some(1));
        }
        let inner = cache.inner.lock().unwrap();
        assert!(
            inner.recency.len() <= queue_bound(inner.map.len()),
            "{} queue entries for {} key",
            inner.recency.len(),
            inner.map.len()
        );
    }

    #[test]
    fn remove_drops_the_entry() {
        let cache = LruCache::new(2);
        cache.insert(key(1), 1);
        cache.insert(key(2), 2);
        assert_eq!(cache.remove(&key(1)), Some(1));
        assert_eq!(cache.remove(&key(1)), None);
        assert_eq!(cache.len(), 1);
        // The removed key's stale recency entry never evicts a live one.
        cache.insert(key(3), 3);
        assert_eq!(cache.get(&key(2)), Some(2));
        assert_eq!(cache.get(&key(3)), Some(3));
    }

    #[test]
    fn get_returns_inserted_value() {
        let cache = LruCache::new(4);
        cache.insert(key(1), "one");
        assert_eq!(cache.get(&key(1)), Some("one"));
        assert_eq!(cache.get(&key(2)), None);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = LruCache::new(2);
        cache.insert(key(1), 1);
        cache.insert(key(2), 2);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(cache.get(&key(1)), Some(1));
        cache.insert(key(3), 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(2)), None, "LRU entry should be evicted");
        assert_eq!(cache.get(&key(1)), Some(1));
        assert_eq!(cache.get(&key(3)), Some(3));
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let cache = LruCache::new(2);
        cache.insert(key(1), 1);
        cache.insert(key(1), 10);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1)), Some(10));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = LruCache::new(0);
        cache.insert(key(1), 1);
        assert_eq!(cache.get(&key(1)), None);
        assert!(cache.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Inserting or deleting any single edge moves the structural
        /// fingerprint.
        #[test]
        fn one_edge_changes_the_fingerprint(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
            pair in (0u32..40, 0u32..40),
        ) {
            let edges = edges.into_iter().map(|(u, v)| (u % n as u32, v % n as u32));
            let g = gc_graph::GraphBuilder::new(n).edges(edges).build();
            let (u, v) = (pair.0 % n as u32, (pair.0 + 1 + pair.1 % (n as u32 - 1)) % n as u32);
            let delta = if g.has_edge(u, v) {
                EdgeDelta { insert: vec![], delete: vec![(u, v)] }
            } else {
                EdgeDelta { insert: vec![(u, v)], delete: vec![] }
            };
            let h = gc_graph::apply_edge_delta(&g, &delta).unwrap().graph;
            prop_assert_ne!(graph_fingerprint(&g), graph_fingerprint(&h));
        }
    }

    #[test]
    fn key_includes_colorer_seed_and_devices() {
        let cache = LruCache::new(8);
        let base = CacheKey {
            graph_fp: 1,
            colorer: "A",
            seed: 0,
            devices: 1,
            reduce_budget_ms: None,
        };
        cache.insert(base.clone(), 1);
        assert_eq!(
            cache.get(&CacheKey {
                colorer: "B",
                ..base.clone()
            }),
            None
        );
        assert_eq!(
            cache.get(&CacheKey {
                seed: 1,
                ..base.clone()
            }),
            None
        );
        assert_eq!(
            cache.get(&CacheKey {
                devices: 4,
                ..base.clone()
            }),
            None,
            "a sharded run must not serve the single-device cache entry"
        );
        assert_eq!(
            cache.get(&CacheKey {
                reduce_budget_ms: Some(5),
                ..base.clone()
            }),
            None,
            "a reduced entry must not alias the base colorer entry"
        );
        assert_eq!(cache.get(&base), Some(1));
    }
}
