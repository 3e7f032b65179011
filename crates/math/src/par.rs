//! Deterministic intra-frame parallelism primitives.
//!
//! The simulator parallelizes *within* a frame by splitting per-mobile
//! state into **fixed-size chunks** and handing each chunk to whichever
//! worker claims it first. Determinism comes from the data layout, not
//! from the schedule:
//!
//! * chunk boundaries depend only on the item count and the constant
//!   [`DEFAULT_CHUNK`] — never on the thread count;
//! * every chunk writes exclusively into its own slice of the state (and
//!   its own scratch / partial accumulators);
//! * any floating-point reduction over chunks is folded **in chunk
//!   order** on the calling thread after the parallel phase.
//!
//! Under those rules a computation produces bit-identical results for
//! *any* thread count, including one — the same invariant the campaign
//! runner guarantees across shard counts, pushed down into the frame.
//!
//! [`FramePool`] is the persistent worker pool (no per-frame thread
//! spawns, no allocations in [`FramePool::run`]).
//! [`FramePool::for_each_chunk_mut`] is the safe way to mutate the chunks
//! of one slice concurrently; [`Partition`] is the unsafe-but-narrow
//! window underneath it, for loops that must walk several buffers chunk
//! by chunk in lock-step (the network step).

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default number of items per chunk. Fixed — chunk boundaries must not
/// depend on the thread count, or the chunk-order fold would not be
/// thread-count invariant.
pub const DEFAULT_CHUNK: usize = 256;

/// Number of chunks needed to cover `n` items at `chunk` items apiece.
#[inline]
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    assert!(chunk > 0, "chunk size must be positive");
    n.div_ceil(chunk)
}

/// Resolves a thread-count knob: `0` means one thread per available core,
/// any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// A borrowed job: fat pointer to the caller's `Fn(usize)` closure. Only
/// dereferenced while [`FramePool::run`] is blocked, which keeps the
/// borrow alive — the same discipline `std::thread::scope` enforces.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointee is `Sync` (calling it from several threads is fine)
// and `run` does not return before every worker has finished with it.
unsafe impl Send for Job {}

struct Control {
    /// Monotone counter: workers run one claim-loop per epoch.
    epoch: u64,
    job: Option<Job>,
    n_chunks: usize,
    /// Workers still inside the current epoch's claim loop.
    active: usize,
    /// A worker's chunk panicked during the current epoch.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    control: Mutex<Control>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The caller waits here for `active == 0`.
    done: Condvar,
    /// Next unclaimed chunk index of the current epoch.
    cursor: AtomicUsize,
}

/// A persistent pool of frame workers executing chunk jobs.
///
/// `FramePool::new(t)` spawns `t - 1` worker threads; the calling thread
/// participates in every [`run`](FramePool::run), so `t` is the total
/// parallelism and `t <= 1` degenerates to plain inline execution with no
/// threads at all. Workers are parked between frames and joined on drop.
///
/// [`run`](FramePool::run) performs **zero heap allocations**, so it can
/// sit inside the zero-allocation steady state of the frame loop.
///
/// The pool is `Sync`, but a run is a whole-pool affair: concurrent
/// [`run`](FramePool::run) calls from different threads are **serialized**
/// on an internal lock (the workers, cursor, and epoch are one shared
/// set — interleaving two jobs would corrupt the hand-off).
pub struct FramePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serializes concurrent `run` callers — one job owns the workers at
    /// a time. Uncontended in the engine (one pool per simulation, one
    /// driving thread).
    run_lock: Mutex<()>,
}

impl std::fmt::Debug for FramePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramePool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl FramePool {
    /// Creates a pool with total parallelism `threads` (`0` ⇒ one per
    /// available core; `1` ⇒ no worker threads, inline execution).
    pub fn new(threads: usize) -> Self {
        let threads = resolve_threads(threads).max(1);
        let shared = Arc::new(Shared {
            control: Mutex::new(Control {
                epoch: 0,
                job: None,
                n_chunks: 0,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wcdma-frame-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn frame worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
            run_lock: Mutex::new(()),
        }
    }

    /// Total parallelism (worker threads + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(chunk_index)` for every `chunk_index in 0..n_chunks`,
    /// each index claimed exactly once across the pool (the calling
    /// thread participates). Returns once every chunk has finished.
    ///
    /// Which thread runs which chunk is racy — `f` must make the result
    /// independent of that assignment: disjoint writes per chunk, and any
    /// cross-chunk reduction folded in chunk order *after* this returns.
    pub fn run<F: Fn(usize) + Sync>(&self, n_chunks: usize, f: F) {
        if self.workers.is_empty() || n_chunks <= 1 {
            // Inline path touches no shared pool state — safe concurrently.
            for i in 0..n_chunks {
                f(i);
            }
            return;
        }
        // One job owns the workers at a time: a second caller parks here
        // until the first epoch fully drains (see the struct docs). A
        // poisoned lock just means an earlier job panicked out of `run`;
        // the epoch below starts from clean control state, so proceed.
        let _exclusive = self
            .run_lock
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        // SAFETY: lifetime erasure only — `run` does not return until all
        // workers have finished with the job, so the `'static` pointer is
        // never dereferenced after `f` dies (the scoped-thread pattern).
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&f)
        };
        let job = Job { f: erased };
        self.shared.cursor.store(0, Ordering::Relaxed);
        {
            let mut c = self.shared.control.lock().expect("pool lock");
            c.job = Some(job);
            c.n_chunks = n_chunks;
            c.active = self.workers.len();
            c.panicked = false;
            c.epoch += 1;
            self.shared.work.notify_all();
        }
        // The caller claims chunks too; a panic in its own chunk must
        // still wait for the workers before unwinding (they hold a
        // pointer into `f`).
        let own = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            f(i);
        }));
        let worker_panicked = {
            let mut c = self.shared.control.lock().expect("pool lock");
            while c.active > 0 {
                c = self.shared.done.wait(c).expect("pool lock");
            }
            c.job = None;
            c.panicked
        };
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        assert!(!worker_panicked, "a FramePool worker panicked in run()");
    }

    /// Runs `f(chunk_index, chunk)` for every `chunk`-element chunk of
    /// `data` (the last chunk may be shorter), spread over the pool as in
    /// [`run`](Self::run). Each chunk is handed to exactly one call, so `f`
    /// has exclusive access to its slice.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let parts = Partition::new(data, chunk);
        self.run(parts.n_chunks(), |ci| {
            // SAFETY: `run` claims each chunk index exactly once, so no two
            // live calls use the same index.
            f(ci, unsafe { parts.chunk(ci) });
        });
    }
}

impl Drop for FramePool {
    fn drop(&mut self) {
        {
            let mut c = self.shared.control.lock().expect("pool lock");
            c.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, n_chunks) = {
            let mut c = shared.control.lock().expect("pool lock");
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != seen_epoch {
                    seen_epoch = c.epoch;
                    break (c.job.expect("job posted with epoch"), c.n_chunks);
                }
                c = shared.work.wait(c).expect("pool lock");
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            // SAFETY: the caller blocks in `run` until this epoch's
            // `active` count reaches zero, so the closure outlives every
            // dereference.
            unsafe { (*job.f)(i) };
        }));
        let mut c = shared.control.lock().expect("pool lock");
        if result.is_err() {
            c.panicked = true;
        }
        c.active -= 1;
        if c.active == 0 {
            shared.done.notify_one();
        }
    }
}

/// A partition of a mutable slice into fixed-size chunks that can be
/// claimed from different threads.
///
/// The partition erases the borrow into a raw pointer so a `Fn` closure
/// can hand out `&mut` sub-slices; soundness rests on the caller
/// discipline documented on [`Partition::chunk`]. The lifetime parameter
/// keeps the original `&mut` borrow alive for as long as the partition
/// exists, so the underlying buffer cannot be touched elsewhere.
pub struct Partition<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: handing chunks to other threads moves `&mut [T]` windows across
// threads, which requires `T: Send`; the struct itself holds no shared
// state beyond the raw pointer.
unsafe impl<T: Send> Send for Partition<'_, T> {}
unsafe impl<T: Send> Sync for Partition<'_, T> {}

impl<'a, T> Partition<'a, T> {
    /// Partitions `data` into chunks of `chunk_elems` elements (the last
    /// chunk may be shorter).
    pub fn new(data: &'a mut [T], chunk_elems: usize) -> Self {
        assert!(chunk_elems > 0, "chunk size must be positive");
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            chunk: chunk_elems,
            _marker: PhantomData,
        }
    }

    /// Number of chunks in the partition.
    pub fn n_chunks(&self) -> usize {
        chunk_count(self.len, self.chunk)
    }

    /// The `idx`-th chunk as a mutable slice.
    ///
    /// # Safety
    ///
    /// No two live calls may use the same `idx` — distinct indices yield
    /// disjoint slices, equal indices alias. [`FramePool::run`] claims
    /// each index exactly once, which satisfies this by construction.
    #[allow(clippy::mut_from_ref)] // the exclusivity contract is the `unsafe`
    pub unsafe fn chunk(&self, idx: usize) -> &'a mut [T] {
        let start = idx * self.chunk;
        assert!(start < self.len, "chunk index out of range");
        let len = self.chunk.min(self.len - start);
        // SAFETY: in-bounds by the assert; exclusive by the caller
        // contract above; lifetime bounded by the borrow in `_marker`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_count_covers_everything() {
        assert_eq!(chunk_count(0, 256), 0);
        assert_eq!(chunk_count(1, 256), 1);
        assert_eq!(chunk_count(256, 256), 1);
        assert_eq!(chunk_count(257, 256), 2);
        assert_eq!(chunk_count(1000, 256), 4);
    }

    #[test]
    fn resolve_threads_auto_and_literal() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn pool_runs_every_chunk_exactly_once() {
        // Empty, single-element, and ragged-tail slices (1000 and 37 are
        // not multiples of the chunk sizes below).
        for threads in [1, 2, 4, 7] {
            let pool = FramePool::new(threads);
            for len in [0, 1, 37, 1000] {
                for chunk in [1, 8, 256] {
                    let mut hits = vec![0u32; len];
                    pool.for_each_chunk_mut(&mut hits, chunk, |ci, part| {
                        assert_eq!(part.len(), chunk.min(len - ci * chunk));
                        for h in part {
                            *h += 1 + ci as u32;
                        }
                    });
                    let want: Vec<u32> = (0..len).map(|i| 1 + (i / chunk) as u32).collect();
                    assert_eq!(hits, want, "threads {threads}, len {len}, chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_epochs() {
        let pool = FramePool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            pool.run(16, |ci| {
                total.fetch_add(ci as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * (0..16u64).sum::<u64>());
    }

    #[test]
    fn chunk_order_fold_is_thread_count_invariant() {
        // The exact pattern the network uses: per-chunk partial sums of
        // pathological magnitudes, folded in chunk order. Any thread
        // count must produce the same bits.
        let xs: Vec<f64> = (0..4096i32)
            .map(|i| (f64::from(i) * 0.731).sin() * 10f64.powi(i % 37 - 18))
            .collect();
        let fold = |threads: usize| {
            let pool = FramePool::new(threads);
            let n_chunks = chunk_count(xs.len(), DEFAULT_CHUNK);
            let mut partials = vec![0.0f64; n_chunks];
            let xs = &xs;
            pool.for_each_chunk_mut(&mut partials, 1, |ci, partial| {
                let lo = ci * DEFAULT_CHUNK;
                let hi = (lo + DEFAULT_CHUNK).min(xs.len());
                partial[0] = xs[lo..hi].iter().sum();
            });
            let mut total = 0.0;
            for p in partials {
                total += p;
            }
            total.to_bits()
        };
        let one = fold(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(fold(threads), one, "threads = {threads}");
        }
    }

    #[test]
    fn partition_splits_strided_rows() {
        let mut m: Vec<u32> = (0..60).collect(); // 10 rows of stride 6
        assert_eq!(Partition::new(&mut m, 4 * 6).n_chunks(), 3);
        // 4 rows per chunk; each chunk stamps its length into its first cell.
        FramePool::new(2).for_each_chunk_mut(&mut m, 4 * 6, |_, rows| {
            rows[0] = rows.len() as u32;
        });
        assert_eq!([m[0], m[24], m[48]], [24, 24, 12]);
        assert_eq!(m[1..24], (1..24).collect::<Vec<u32>>()[..]);
    }

    #[test]
    fn concurrent_run_calls_are_serialized_and_complete() {
        // Two threads hammer the same pool; the run lock must serialize
        // the epochs so every chunk of every job executes exactly once.
        let pool = FramePool::new(3);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..100 {
                    pool.run(32, |_| {
                        a.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            s.spawn(|| {
                for _ in 0..100 {
                    pool.run(32, |_| {
                        b.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(a.load(Ordering::Relaxed), 3200);
        assert_eq!(b.load(Ordering::Relaxed), 3200);
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let pool = FramePool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |ci| {
                if ci == 33 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic in a chunk must propagate");
        // The pool must stay usable afterwards.
        let total = AtomicU64::new(0);
        pool.run(8, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn single_thread_pool_spawns_nothing_and_still_runs() {
        let pool = FramePool::new(1);
        assert_eq!(pool.threads(), 1);
        let total = AtomicU64::new(0);
        pool.run(5, |ci| {
            total.fetch_add(ci as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }
}
