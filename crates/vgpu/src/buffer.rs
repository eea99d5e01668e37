//! Device global-memory buffers.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool;
use crate::scalar::Scalar;

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh buffer id. Ids are never reused, so the access tracker can
/// tell buffers apart; [`DeviceBuffer::from_slice_with_id`] takes one
/// reserved ahead of the buffer.
pub(crate) fn next_id() -> u64 {
    NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed)
}

/// A linear array in simulated device global memory.
///
/// Constructing a buffer does not bill transfer time; uploads through
/// [`crate::Device::upload`] and downloads through
/// [`crate::Device::download`] do (mirroring `cudaMemcpy`). Host-side
/// accessors (`get`/`set`/`to_vec`) exist for test setup and inspection
/// and are unmetered.
pub struct DeviceBuffer<T: Scalar> {
    id: u64,
    cells: Box<[T::Atomic]>,
}

impl<T: Scalar> DeviceBuffer<T> {
    /// A buffer of `len` default-valued elements (like `cudaMalloc` +
    /// `cudaMemset(0)`).
    pub fn zeroed(len: usize) -> Self {
        Self::filled(len, T::default())
    }

    /// A buffer with every element set to `v`.
    ///
    /// When the calling thread has the buffer pool enabled (see
    /// [`crate::pool`]), same-shaped storage released by an earlier drop
    /// is reused instead of reallocated; reuse re-initializes every cell.
    pub fn filled(len: usize, v: T) -> Self {
        if let Some(cells) = pool::claim::<T::Atomic>(len) {
            for c in cells.iter() {
                T::store(c, v);
            }
            return DeviceBuffer {
                id: next_id(),
                cells,
            };
        }
        DeviceBuffer {
            id: next_id(),
            cells: (0..len).map(|_| T::new_cell(v)).collect(),
        }
    }

    /// A buffer initialized from host data (unmetered; see
    /// [`crate::Device::upload`] for the metered path). Pool-aware like
    /// [`DeviceBuffer::filled`].
    pub fn from_slice(data: &[T]) -> Self {
        Self::from_slice_with_id(next_id(), data)
    }

    /// [`DeviceBuffer::from_slice`] under an id taken from [`next_id`]
    /// earlier, for a buffer whose accesses were billed before its
    /// contents existed.
    pub(crate) fn from_slice_with_id(id: u64, data: &[T]) -> Self {
        if let Some(cells) = pool::claim::<T::Atomic>(data.len()) {
            for (c, &v) in cells.iter().zip(data) {
                T::store(c, v);
            }
            return DeviceBuffer { id, cells };
        }
        DeviceBuffer {
            id,
            cells: data.iter().map(|&v| T::new_cell(v)).collect(),
        }
    }

    /// Unique id used by the access-pattern tracker.
    #[inline]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    #[inline]
    pub(crate) fn cell(&self, i: usize) -> &T::Atomic {
        &self.cells[i]
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Host-side read (unmetered).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::load(&self.cells[i])
    }

    /// Host-side write (unmetered).
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        T::store(&self.cells[i], v)
    }

    /// Host-side snapshot (unmetered).
    pub fn to_vec(&self) -> Vec<T> {
        self.cells.iter().map(|c| T::load(c)).collect()
    }

    /// Host-side bulk fill (unmetered).
    pub fn fill(&self, v: T) {
        for c in self.cells.iter() {
            T::store(c, v);
        }
    }

    /// Host-side bulk copy-in (unmetered). Lengths must match.
    pub fn copy_from_slice(&self, data: &[T]) {
        assert_eq!(data.len(), self.len(), "length mismatch");
        for (c, &v) in self.cells.iter().zip(data) {
            T::store(c, v);
        }
    }

    /// Host-side bulk copy-in at an offset (unmetered). The data must
    /// fit: `offset + data.len() <= len`.
    pub fn copy_from_slice_at(&self, offset: usize, data: &[T]) {
        assert!(
            offset + data.len() <= self.len(),
            "copy_from_slice_at out of range: {} + {} > {}",
            offset,
            data.len(),
            self.len()
        );
        for (c, &v) in self.cells[offset..offset + data.len()].iter().zip(data) {
            T::store(c, v);
        }
    }

    /// Total bytes of the buffer as billed by transfers.
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * T::BYTES
    }

    /// Bounds-checks `[start, end)` once and returns the raw cell range
    /// for a pre-billed sequential run (see
    /// [`crate::ThreadCtx::read_seq_run`]).
    #[inline]
    pub(crate) fn cells_range(&self, start: usize, end: usize) -> &[T::Atomic] {
        &self.cells[start..end]
    }
}

/// A pre-billed sequential window over a [`DeviceBuffer`], returned by
/// [`crate::ThreadCtx::read_seq_run`]. The whole run's memory traffic is
/// metered up front in O(1), so element reads here are raw atomic loads
/// with no per-access bounds check or bookkeeping — the fast path for CSR
/// inner loops that stream a neighbor list.
///
/// Borrows the buffer, not the thread context: the context stays usable
/// inside `for u in run { ... }` bodies.
pub struct SeqRun<'a, T: Scalar> {
    cells: &'a [T::Atomic],
    _elem: std::marker::PhantomData<T>,
}

impl<'a, T: Scalar> SeqRun<'a, T> {
    #[inline]
    pub(crate) fn new(cells: &'a [T::Atomic]) -> Self {
        SeqRun {
            cells,
            _elem: std::marker::PhantomData,
        }
    }

    /// Number of elements in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the run is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Element at offset `i` *within the run* (0-based, unmetered — the
    /// run was billed at creation).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::load(&self.cells[i])
    }

    /// Iterator over the run's elements.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = T> + 'a {
        let cells = self.cells;
        cells.iter().map(T::load)
    }
}

impl<'a, T: Scalar> IntoIterator for SeqRun<'a, T> {
    type Item = T;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, T::Atomic>, fn(&T::Atomic) -> T>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter().map(T::load as fn(&T::Atomic) -> T)
    }
}

impl<'a, T: Scalar> IntoIterator for &SeqRun<'a, T> {
    type Item = T;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, T::Atomic>, fn(&T::Atomic) -> T>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter().map(T::load as fn(&T::Atomic) -> T)
    }
}

impl<T: Scalar> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        // Shelve the storage on the thread's pool (no-op when disabled).
        pool::offer(std::mem::take(&mut self.cells));
    }
}

impl<T: Scalar> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        Self::from_slice(&self.to_vec())
    }
}

/// Compares the buffer's contents with host data (unmetered, like
/// [`DeviceBuffer::to_vec`]).
impl<T: Scalar> PartialEq<Vec<T>> for DeviceBuffer<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len() == other.len() && self.cells.iter().map(T::load).eq(other.iter().copied())
    }
}

impl<T: Scalar> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeviceBuffer(id={}, len={})", self.id, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_defaults() {
        let b = DeviceBuffer::<u32>::zeroed(4);
        assert_eq!(b.to_vec(), vec![0; 4]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }

    #[test]
    fn filled_and_fill() {
        let b = DeviceBuffer::<i32>::filled(3, -7);
        assert_eq!(b.to_vec(), vec![-7; 3]);
        b.fill(9);
        assert_eq!(b.to_vec(), vec![9; 3]);
    }

    #[test]
    fn from_slice_roundtrip() {
        let data = vec![1.0f32, 2.5, -3.0];
        let b = DeviceBuffer::from_slice(&data);
        assert_eq!(b.to_vec(), data);
        assert_eq!(b, data);
        assert_ne!(b, data[..2].to_vec());
        assert_eq!(b.get(1), 2.5);
    }

    #[test]
    fn set_get() {
        let b = DeviceBuffer::<u64>::zeroed(2);
        b.set(1, 99);
        assert_eq!(b.get(1), 99);
        assert_eq!(b.get(0), 0);
    }

    #[test]
    fn ids_are_unique() {
        let a = DeviceBuffer::<u32>::zeroed(1);
        let b = DeviceBuffer::<u32>::zeroed(1);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn size_bytes() {
        assert_eq!(DeviceBuffer::<u32>::zeroed(10).size_bytes(), 40);
        assert_eq!(DeviceBuffer::<f64>::zeroed(10).size_bytes(), 80);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_slice_length_checked() {
        DeviceBuffer::<u32>::zeroed(2).copy_from_slice(&[1, 2, 3]);
    }

    #[test]
    fn clone_copies_contents() {
        let a = DeviceBuffer::from_slice(&[1u32, 2, 3]);
        let b = a.clone();
        a.set(0, 100);
        assert_eq!(b.get(0), 1);
    }
}
