//! Offline drop-in replacement for the subset of `rayon` this workspace
//! uses (see `shims/` in the repository root for why these exist).
//!
//! The model is a chunked fork-join on a persistent pool (see `pool`): a
//! pipeline of lazy adapters (`map`, `filter`, `flat_map_iter`,
//! `filter_map`) over an indexable source (a range, a slice, or a
//! vector). Terminal operations split the index space into one
//! contiguous chunk per available core, run the chunks on the calling
//! thread and the pool's idle helper threads, and combine chunk results
//! *in chunk order*, so every terminal is deterministic: `collect`
//! preserves source order exactly, and `reduce` folds in sequential
//! order (a valid association of the rayon contract).

use std::ops::Range;

mod pool;

use pool::{map_chunks, num_threads};

/// Sources below this many items run inline on the calling thread: a
/// hand-off to the pool costs more than the work it would parallelize.
const SPAWN_THRESHOLD: usize = 4;

/// Whether a source of `n` items is split across the pool.
fn splits(n: usize) -> bool {
    n >= SPAWN_THRESHOLD && num_threads() > 1
}

/// Number of worker threads terminal operations may use (rayon-compatible
/// accessor; callers size their task chunks by it).
pub fn current_num_threads() -> usize {
    num_threads()
}

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

/// A lazy, splittable pipeline. `fill` produces the items of the given
/// index sub-range, in order, into `sink`.
pub trait ParallelIterator: Sized + Send + Sync {
    type Item: Send;

    /// Number of *source* indices (not necessarily output items —
    /// `filter`/`flat_map_iter` stages change the count downstream).
    fn source_len(&self) -> usize;

    /// Produces the pipeline's output for source indices in `range`.
    fn fill(&self, range: Range<usize>, sink: &mut dyn FnMut(Self::Item));

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Send + Sync,
    {
        Filter { base: self, f }
    }

    fn filter_map<F, R>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<R> + Send + Sync,
        R: Send,
    {
        FilterMap { base: self, f }
    }

    /// Like rayon's `flat_map_iter`: `f` returns a *serial* iterator
    /// whose items are spliced into the output in place.
    fn flat_map_iter<F, I>(self, f: F) -> FlatMapIter<Self, F>
    where
        F: Fn(Self::Item) -> I + Send + Sync,
        I: IntoIterator,
        I::Item: Send,
    {
        FlatMapIter { base: self, f }
    }

    /// Materializes each chunk on the pool, then concatenates the chunks
    /// in order.
    fn run_chunked(&self) -> Vec<Self::Item> {
        let fill = |range: Range<usize>| {
            let mut out = Vec::new();
            self.fill(range, &mut |x| out.push(x));
            out
        };
        let n = self.source_len();
        if !splits(n) {
            return fill(0..n);
        }
        let parts = map_chunks(n, fill);
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            out.extend(p);
        }
        out
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Folds every item with `op`, seeding each chunk (and the final
    /// chunk combination) with `identity`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Send + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        let fold = |range: Range<usize>| {
            let mut slot = Some(identity());
            self.fill(range, &mut |x| {
                let a = slot.take().expect("reduce accumulator");
                slot = Some(op(a, x));
            });
            slot.expect("reduce accumulator")
        };
        let n = self.source_len();
        if !splits(n) {
            return fold(0..n);
        }
        map_chunks(n, fold).into_iter().fold(identity(), &op)
    }

    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.run_chunked().into_iter().max()
    }

    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.run_chunked().into_iter().min()
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.run_chunked().into_iter().sum()
    }

    fn count(self) -> usize {
        self.run_chunked().len()
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        self.run_chunked().into_iter().for_each(f);
    }
}

/// Conversion of an owned collection into a pipeline source.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

/// Borrowing conversion (`.par_iter()`), yielding references.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'a self) -> Self::Iter;
}

/// `par_sort_unstable` on mutable slices. Sequential: `sort_unstable` is
/// already fast enough for every call site in this workspace, and keeping
/// it serial preserves exact rayon-compatible results (same algorithm
/// class, same output order).
pub trait ParallelSliceMut<T: Send> {
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        self.sort_unstable();
    }
}

// ---- sources ----------------------------------------------------------

pub struct RangeIter<T> {
    start: T,
    len: usize,
}

macro_rules! range_source {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = RangeIter<$t>;
            fn into_par_iter(self) -> RangeIter<$t> {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                RangeIter { start: self.start, len }
            }
        }
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            fn source_len(&self) -> usize {
                self.len
            }
            fn fill(&self, range: Range<usize>, sink: &mut dyn FnMut($t)) {
                for i in range {
                    sink(self.start + i as $t);
                }
            }
        }
    )*};
}
range_source!(usize, u32, u64, i32, i64);

pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn source_len(&self) -> usize {
        self.slice.len()
    }
    fn fill(&self, range: Range<usize>, sink: &mut dyn FnMut(&'a T)) {
        for x in &self.slice[range] {
            sink(x);
        }
    }
}

pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send + Sync + Clone> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

impl<T: Send + Sync + Clone> ParallelIterator for VecIter<T> {
    type Item = T;
    fn source_len(&self) -> usize {
        self.items.len()
    }
    fn fill(&self, range: Range<usize>, sink: &mut dyn FnMut(T)) {
        for x in &self.items[range] {
            sink(x.clone());
        }
    }
}

// ---- adapters ---------------------------------------------------------

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, F, R> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn fill(&self, range: Range<usize>, sink: &mut dyn FnMut(R)) {
        self.base.fill(range, &mut |x| sink((self.f)(x)));
    }
}

pub struct Filter<B, F> {
    base: B,
    f: F,
}

impl<B, F> ParallelIterator for Filter<B, F>
where
    B: ParallelIterator,
    F: Fn(&B::Item) -> bool + Send + Sync,
{
    type Item = B::Item;
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn fill(&self, range: Range<usize>, sink: &mut dyn FnMut(B::Item)) {
        self.base.fill(range, &mut |x| {
            if (self.f)(&x) {
                sink(x);
            }
        });
    }
}

pub struct FilterMap<B, F> {
    base: B,
    f: F,
}

impl<B, F, R> ParallelIterator for FilterMap<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> Option<R> + Send + Sync,
    R: Send,
{
    type Item = R;
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn fill(&self, range: Range<usize>, sink: &mut dyn FnMut(R)) {
        self.base.fill(range, &mut |x| {
            if let Some(y) = (self.f)(x) {
                sink(y);
            }
        });
    }
}

pub struct FlatMapIter<B, F> {
    base: B,
    f: F,
}

impl<B, F, I> ParallelIterator for FlatMapIter<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> I + Send + Sync,
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    fn source_len(&self) -> usize {
        self.base.source_len()
    }
    fn fill(&self, range: Range<usize>, sink: &mut dyn FnMut(I::Item)) {
        self.base.fill(range, &mut |x| {
            for y in (self.f)(x) {
                sink(y);
            }
        });
    }
}

// ---- terminal collection ----------------------------------------------

pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        iter.run_chunked()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn vec_filter_flat_map_matches_serial() {
        let arcs: Vec<(u32, u32)> = (0..500).map(|i| (i, (i * 7) % 500)).collect();
        let par: Vec<(u32, u32)> = arcs
            .clone()
            .into_par_iter()
            .filter(|&(u, v)| u != v)
            .flat_map_iter(|(u, v)| [(u, v), (v, u)])
            .collect();
        let ser: Vec<(u32, u32)> = arcs
            .into_iter()
            .filter(|&(u, v)| u != v)
            .flat_map(|(u, v)| [(u, v), (v, u)])
            .collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn reduce_matches_fold() {
        let total = (0..1_000u64)
            .into_par_iter()
            .map(|x| x * x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, (0..1_000u64).map(|x| x * x).sum::<u64>());
    }

    #[test]
    fn reduce_tiny_input_runs_inline() {
        assert_eq!(
            (0..1usize).into_par_iter().reduce(|| 100, |a, b| a + b),
            100
        );
        assert_eq!((0..0usize).into_par_iter().reduce(|| 42, |a, b| a + b), 42);
    }

    #[test]
    fn par_iter_filter_map() {
        let v = vec![1u32, 2, 3, 4, 5, 6, 7, 8];
        let odds: Vec<u32> = v
            .par_iter()
            .filter_map(|&x| (x % 2 == 1).then_some(x * 10))
            .collect();
        assert_eq!(odds, vec![10, 30, 50, 70]);
    }

    #[test]
    fn concurrent_callers_get_their_results_in_order() {
        use std::sync::Barrier;
        let callers = 4;
        let barrier = Barrier::new(callers);
        std::thread::scope(|s| {
            for k in 0..callers {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for round in 0..50usize {
                        let n = 1_000 + 17 * k + round;
                        let v: Vec<usize> =
                            (0..n).into_par_iter().map(|x| x * callers + k).collect();
                        assert!(v.iter().enumerate().all(|(i, &x)| x == i * callers + k));
                        let sum = (0..n).into_par_iter().reduce(|| 0, |a, b| a + b);
                        assert_eq!(sum, n * (n - 1) / 2);
                    }
                });
            }
        });
    }

    #[test]
    fn chunk_panic_payload_reaches_the_caller_and_the_pool_survives() {
        let n = 64usize;
        // Every chunk but the first panics with its own message, so
        // whichever thread runs it, the payload must name chunk 1's
        // first item (the lowest panicking chunk).
        let first_panicking = n.div_ceil(super::current_num_threads().min(n));
        let caught = std::panic::catch_unwind(|| {
            (0..n)
                .into_par_iter()
                .map(|i| {
                    if i >= first_panicking && i % first_panicking == 0 {
                        panic!("chunk starting at {i}");
                    }
                    i
                })
                .collect::<Vec<_>>()
        });
        if super::current_num_threads() > 1 {
            let payload = caught.expect_err("a chunk panicked");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic!(fmt) carries a String");
            assert_eq!(msg, &format!("chunk starting at {first_panicking}"));
        }
        // The pool is still usable afterwards.
        for _ in 0..20 {
            let v: Vec<usize> = (0..n).into_par_iter().map(|x| x + 1).collect();
            assert_eq!(v, (1..=n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_parallel_call_inside_a_chunk_completes() {
        let rows: Vec<u64> = (0..16u64)
            .into_par_iter()
            .map(|r| {
                (0..1_000u64)
                    .into_par_iter()
                    .map(|x| x * r)
                    .reduce(|| 0, |a, b| a + b)
            })
            .collect();
        let want: Vec<u64> = (0..16u64).map(|r| r * 999 * 1_000 / 2).collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn helper_threads_stay_bounded() {
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let v: Vec<u32> = (0..256u32).into_par_iter().map(|x| x ^ 1).collect();
                        assert_eq!(v.len(), 256);
                    }
                });
            }
        });
        // Linux only: count the named helpers among this process's
        // threads. A helper names itself once it starts running, so
        // wait briefly for the pool to be fully visible.
        let limit = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        let count = || {
            std::fs::read_dir("/proc/self/task").ok().map(|tasks| {
                tasks
                    .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                    .filter(|comm| comm.starts_with("rayon-helper"))
                    .count()
            })
        };
        let Some(mut helpers) = count() else { return };
        for _ in 0..200 {
            assert!(helpers <= limit, "{helpers} helper threads, limit {limit}");
            if helpers == limit {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            helpers = count().unwrap_or(0);
        }
        assert_eq!(helpers, limit, "the pool keeps one helper per extra core");
    }

    #[test]
    fn max_and_sort() {
        assert_eq!(
            (0..5_000usize).into_par_iter().map(|x| x ^ 0x2a).max(),
            Some(5039)
        );
        assert_eq!((0..0usize).into_par_iter().max(), None);
        let mut v: Vec<u32> = (0..1000).rev().collect();
        v.par_sort_unstable();
        assert_eq!(v, (0..1000).collect::<Vec<_>>());
    }
}
