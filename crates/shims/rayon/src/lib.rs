//! Offline shim for `rayon`, backed by `exaclim-runtime`'s worker pool.
//!
//! Unlike the original sequential shim, the entry points (`into_par_iter`,
//! `par_iter`, `par_iter_mut`, `par_chunks`, `par_chunks_mut`) now return
//! genuinely parallel iterators: terminal operations (`for_each`,
//! `collect`, `sum`) split the index space into contiguous ranges and
//! distribute them over [`exaclim_runtime::pool::global`]. The combinator
//! surface this workspace uses (`map`, `zip`, `enumerate`) is preserved, so
//! downstream call sites compile unchanged.
//!
//! Ordering guarantees match rayon's: `collect` assembles results in input
//! order, so a pure `map` pipeline produces output bit-identical to the
//! sequential loop regardless of thread count. `sum` reduces per-range
//! partials in input order — deterministic for a fixed pool size, but (as
//! with real rayon) a float sum may differ from the strictly sequential
//! grouping.
//!
//! The pool is sized by `EXACLIM_THREADS` or `available_parallelism()`;
//! with one thread every operation degrades to the old inline sequential
//! loop.

use exaclim_runtime::pool;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Mutex;

/// Everything a `use rayon::prelude::*` site needs.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

/// A parallel iterator: a fixed-length indexed sequence whose items can be
/// produced from any thread, plus the combinators this workspace uses.
///
/// Implementations are driven by splitting `0..len()` into disjoint
/// contiguous ranges, one per pool lane.
pub trait ParallelIterator: Sized + Sync {
    /// Item produced for each index.
    type Item: Send;

    /// Number of items.
    fn len(&self) -> usize;

    /// True when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce the item at index `i`.
    ///
    /// # Safety
    ///
    /// `i < self.len()`, and each index is passed at most once over the
    /// iterator's lifetime: mutable sources hand out `&mut` references on
    /// the strength of that exclusivity.
    unsafe fn item(&self, i: usize) -> Self::Item;

    /// Transform every item with `op`.
    fn map<R, F>(self, op: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, op }
    }

    /// Pair items up with a second parallel iterator (length = the shorter).
    fn zip<B>(self, other: B) -> Zip<Self, B>
    where
        B: ParallelIterator,
    {
        Zip { a: self, b: other }
    }

    /// Attach each item's index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Consume every item in parallel.
    fn for_each<F>(self, op: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let it = &self;
        pool::global().parallel_for(self.len(), |range| {
            for i in range {
                // SAFETY: the pool hands each index to exactly one range.
                op(unsafe { it.item(i) });
            }
        });
    }

    /// Consume every item in parallel with a per-lane state: `init` runs
    /// once per contiguous index range a pool lane takes, and `op` gets that
    /// state along with each item — scratch buffers are made once per lane,
    /// not once per item. (Real rayon may call `init` more often; results
    /// must not depend on how items share a state.)
    fn for_each_init<T, INIT, F>(self, init: INIT, op: F)
    where
        INIT: Fn() -> T + Sync,
        F: Fn(&mut T, Self::Item) + Sync,
    {
        let it = &self;
        pool::global().parallel_for(self.len(), |range| {
            let mut state = init();
            for i in range {
                // SAFETY: the pool hands each index to exactly one range.
                op(&mut state, unsafe { it.item(i) });
            }
        });
    }

    /// Collect into a container, preserving input order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Sum the items. Per-range partial sums are reduced in input order.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        drive_ordered(&self, |it, range| {
            // SAFETY: the pool hands each index to exactly one range.
            range.map(|i| unsafe { it.item(i) }).sum::<S>()
        })
        .into_iter()
        .sum()
    }
}

/// Run `f` over disjoint ranges covering `0..it.len()` on the global pool
/// and return each range's result, ordered by range start.
fn drive_ordered<P, R, F>(it: &P, f: F) -> Vec<R>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(&P, Range<usize>) -> R + Sync,
{
    let out = Mutex::new(Vec::new());
    pool::global().parallel_for(it.len(), |range| {
        let key = range.start;
        let val = f(it, range);
        out.lock().expect("range result mutex").push((key, val));
    });
    let mut v = out.into_inner().expect("range result mutex");
    v.sort_unstable_by_key(|&(k, _)| k);
    v.into_iter().map(|(_, x)| x).collect()
}

/// Conversion from a parallel iterator, rayon's `FromParallelIterator`.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Build the container, preserving the iterator's input order.
    fn from_par_iter<P>(p: P) -> Self
    where
        P: ParallelIterator<Item = T>;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P>(p: P) -> Self
    where
        P: ParallelIterator<Item = T>,
    {
        let pieces = drive_ordered(&p, |it, range| {
            // SAFETY: the pool hands each index to exactly one range.
            range.map(|i| unsafe { it.item(i) }).collect::<Vec<T>>()
        });
        let mut out = Vec::with_capacity(p.len());
        for piece in pieces {
            out.extend(piece);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Parallel iterator over a `Range<usize>`.
pub struct IterRange {
    start: usize,
    len: usize,
}

impl ParallelIterator for IterRange {
    type Item = usize;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn item(&self, i: usize) -> usize {
        self.start + i
    }
}

/// Parallel iterator over `&[T]`, rayon's `par_iter`.
pub struct Iter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync + 'a> ParallelIterator for Iter<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn item(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Parallel iterator over `&mut [T]`, rayon's `par_iter_mut`.
pub struct IterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: hands out disjoint `&mut T` (one per index, per the `item`
// contract) into a slice that stays exclusively borrowed for `'a`.
unsafe impl<T: Send> Sync for IterMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn item(&self, i: usize) -> &'a mut T {
        debug_assert!(i < self.len);
        // SAFETY: `i < len` and each index is produced at most once, so the
        // references are non-aliasing.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Parallel iterator over immutable chunks, rayon's `par_chunks`.
pub struct Chunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync + 'a> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    unsafe fn item(&self, i: usize) -> &'a [T] {
        let start = i * self.chunk;
        let end = (start + self.chunk).min(self.slice.len());
        &self.slice[start..end]
    }
}

/// Parallel iterator over mutable chunks, rayon's `par_chunks_mut`.
///
/// This is the indexed-source twin of
/// `exaclim_runtime::pool::WorkerPool::parallel_chunks_mut`: both split a
/// slice into disjoint chunks through a raw base pointer, and their
/// soundness arguments must be kept in sync. The pool's version is a leaf
/// loop; this one exists so mutable chunks can compose with `zip`/
/// `enumerate`/`map` via per-index access.
pub struct ChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: hands out disjoint `&mut [T]` chunks (one per index, per the
// `item` contract) into a slice that stays exclusively borrowed for `'a`.
unsafe impl<T: Send> Sync for ChunksMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }

    unsafe fn item(&self, i: usize) -> &'a mut [T] {
        let start = i * self.chunk;
        let end = (start + self.chunk).min(self.len);
        // SAFETY: chunk index ranges are disjoint, so the synthesized
        // slices never alias; the backing slice is borrowed for `'a`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// `map` combinator.
pub struct Map<P, F> {
    base: P,
    op: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    unsafe fn item(&self, i: usize) -> R {
        // SAFETY: forwarded contract.
        (self.op)(unsafe { self.base.item(i) })
    }
}

/// `zip` combinator.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    unsafe fn item(&self, i: usize) -> (A::Item, B::Item) {
        // SAFETY: forwarded contract (indices beyond the shorter side's
        // zip length are never requested).
        unsafe { (self.a.item(i), self.b.item(i)) }
    }
}

/// `enumerate` combinator.
pub struct Enumerate<P> {
    base: P,
}

impl<P> ParallelIterator for Enumerate<P>
where
    P: ParallelIterator,
{
    type Item = (usize, P::Item);

    fn len(&self) -> usize {
        self.base.len()
    }

    unsafe fn item(&self, i: usize) -> (usize, P::Item) {
        // SAFETY: forwarded contract.
        (i, unsafe { self.base.item(i) })
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// `into_par_iter()` for owned index ranges.
pub trait IntoParallelIterator {
    /// Item yielded by the iterator.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = IterRange;

    fn into_par_iter(self) -> IterRange {
        IterRange {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

/// `par_iter()` for collections iterable by shared reference.
pub trait IntoParallelRefIterator<'a> {
    /// Item yielded by the iterator.
    type Item: Send + 'a;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Parallel iterator over shared references.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = Iter<'a, T>;

    fn par_iter(&'a self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = Iter<'a, T>;

    fn par_iter(&'a self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

/// `par_iter_mut()` for collections iterable by exclusive reference.
pub trait IntoParallelRefMutIterator<'a> {
    /// Item yielded by the iterator.
    type Item: Send + 'a;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = IterMut<'a, T>;

    fn par_iter_mut(&'a mut self) -> IterMut<'a, T> {
        IterMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    type Iter = IterMut<'a, T>;

    fn par_iter_mut(&'a mut self) -> IterMut<'a, T> {
        self.as_mut_slice().par_iter_mut()
    }
}

/// Chunked traversal of shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel version of `chunks` (the last chunk may be shorter).
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        Chunks {
            slice: self,
            chunk: chunk_size,
        }
    }
}

/// Chunked traversal of mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel version of `chunks_mut` (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunksMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            chunk: chunk_size,
            _marker: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Serializes the pool-heavy tests of this binary: libtest runs tests
    /// concurrently, they all share the one global pool, and a stress test
    /// hogging the queue while the speedup test times itself would skew
    /// the measured ratio.
    static POOL_HEAVY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pool_heavy_guard() -> std::sync::MutexGuard<'static, ()> {
        POOL_HEAVY.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn range_into_par_iter_collects() {
        let v: Vec<usize> = (0..5).into_par_iter().map(|i| i * i).collect();
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn par_iter_zip_and_enumerate() {
        let a = vec![1, 2, 3];
        let b = [10, 20, 30];
        let s: i32 = a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum();
        assert_eq!(s, 10 + 40 + 90);
        let idx: Vec<usize> = a.par_iter().enumerate().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_regions() {
        let mut buf = vec![0.0f64; 6];
        buf.par_chunks_mut(2).enumerate().for_each(|(i, chunk)| {
            for c in chunk {
                *c = i as f64;
            }
        });
        assert_eq!(buf, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn par_iter_mut_updates_every_element() {
        let _guard = pool_heavy_guard();
        let mut v: Vec<u64> = (0..1000).collect();
        v.par_iter_mut().for_each(|x| *x = *x * 2 + 1);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 2 + 1);
        }
    }

    #[test]
    fn collect_preserves_input_order_at_scale() {
        let _guard = pool_heavy_guard();
        // Large enough to split across every pool lane many times over.
        let n = 100_000usize;
        let v: Vec<usize> = (0..n).into_par_iter().map(|i| i.wrapping_mul(31)).collect();
        assert_eq!(v.len(), n);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i.wrapping_mul(31));
        }
    }

    #[test]
    fn par_chunks_mut_stress_disjoint_under_real_threads() {
        let _guard = pool_heavy_guard();
        // Concurrency stress: many rounds over a buffer whose chunk size
        // does not divide its length; every element must be written exactly
        // once per round with its own chunk's value.
        let len = 65_536usize;
        let chunk = 97usize;
        let mut buf = vec![0u32; len];
        for round in 1..=8u32 {
            buf.par_chunks_mut(chunk).enumerate().for_each(|(ci, c)| {
                for v in c.iter_mut() {
                    *v = *v + ci as u32 + round;
                }
            });
            for (i, v) in buf.iter().enumerate() {
                let expect: u32 = (1..=round).map(|r| (i / chunk) as u32 + r).sum();
                assert_eq!(*v, expect, "round {round}, index {i}");
            }
        }
    }

    #[test]
    fn ragged_tail_chunks_have_correct_lengths() {
        let data: Vec<u8> = vec![1; 10];
        let lens: Vec<usize> = data.par_chunks(4).map(<[u8]>::len).collect();
        assert_eq!(lens, vec![4, 4, 2]);
        let empty: Vec<u8> = Vec::new();
        let none: Vec<usize> = empty.par_chunks(4).map(<[u8]>::len).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn nested_par_calls_complete() {
        let _guard = pool_heavy_guard();
        // Shim-in-shim nesting: inner calls run inline on pool workers, in
        // parallel on the caller lane. Either way this must terminate and
        // produce the sequential answer.
        let outer = 8usize;
        let sums: Vec<usize> = (0..outer)
            .into_par_iter()
            .map(|k| (0..100).into_par_iter().map(|i| i + k).sum::<usize>())
            .collect();
        for (k, s) in sums.iter().enumerate() {
            assert_eq!(*s, 99 * 100 / 2 + 100 * k);
        }
    }

    #[test]
    fn par_chunks_speedup_gated() {
        // Same style as the executor's gated speedup assertion: only
        // meaningful when the pool has ≥ 2 lanes AND the host has ≥ 2
        // cores (EXACLIM_THREADS may exceed the hardware).
        let lanes = exaclim_runtime::pool::global().threads();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let effective = lanes.min(cores).min(8);
        if effective < 2 {
            eprintln!("skipping par_chunks speedup assertion (lanes={lanes}, cores={cores})");
            return;
        }
        let _guard = pool_heavy_guard();
        let spin = |chunk: &mut [u64]| {
            let t = std::time::Instant::now();
            while t.elapsed().as_micros() < 1000 {
                std::hint::spin_loop();
            }
            chunk[0] = chunk[0].wrapping_add(1);
        };
        let n_chunks = 64usize;
        let mut buf = vec![0u64; n_chunks];
        let t_seq = {
            let t = std::time::Instant::now();
            for c in buf.chunks_mut(1) {
                spin(c);
            }
            t.elapsed().as_secs_f64()
        };
        let t_par = {
            let t = std::time::Instant::now();
            buf.par_chunks_mut(1).for_each(spin);
            t.elapsed().as_secs_f64()
        };
        let min_speedup = 1.0 + 0.3 * (effective as f64 - 1.0);
        assert!(
            t_seq / t_par > min_speedup,
            "lanes={lanes}, cores={cores}: t_seq={t_seq}, t_par={t_par}, want ≥ {min_speedup}×"
        );
    }
}
